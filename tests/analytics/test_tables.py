"""LayoutBatch decoding: canonical scanner, fallback path, parity."""

import pytest

from repro.analytics import LayoutBatch, analyze_texts
from repro.io.fgl import FglError, fgl_to_layout, layout_to_fgl
from repro.networks.library import mux21
from repro.networks.logic_network import LogicNetwork
from repro.physical_design.ortho import orthogonal_layout


def _mux_text() -> str:
    return layout_to_fgl(orthogonal_layout(mux21()).layout)


class TestCanonicalScanner:
    def test_writer_output_never_falls_back(self, analytics_db):
        texts = analytics_db.store.read_texts(
            [r.path for r in analytics_db.files() if r.path.endswith(".fgl")]
        )
        batch = LayoutBatch.from_texts(texts)
        assert batch.num_layouts == len(texts)
        assert batch.fallback_decodes == 0

    def test_fallback_on_foreign_formatting(self):
        # Same document, different whitespace: a legal .fgl file the
        # canonical scanner cannot claim — the object decoder must take
        # over and produce the identical batch rows.
        text = _mux_text()
        foreign = text.replace("    <gates>", "  <gates>")
        canonical = LayoutBatch.from_texts([text])
        fallback = LayoutBatch.from_texts([foreign])
        assert canonical.fallback_decodes == 0
        assert fallback.fallback_decodes == 1
        assert fallback.num_rows == canonical.num_rows
        assert list(fallback.kind) == list(canonical.kind)
        assert list(fallback.gx) == list(canonical.gx)
        assert list(fallback.fanin_row) == list(canonical.fanin_row)

    def test_fallback_rolls_back_partial_rows(self):
        # The scanner bails midway through the gate list (a late format
        # deviation); previously appended rows must be rolled back so
        # the fallback decode does not duplicate them.
        text = _mux_text()
        lines = text.splitlines(keepends=True)
        # Perturb the *last* gate's closing tag spacing.
        for i in range(len(lines) - 1, -1, -1):
            if lines[i].strip() == "</gate>":
                lines[i] = lines[i].replace("        </gate>", "      </gate>")
                break
        foreign = "".join(lines)
        canonical = LayoutBatch.from_texts([text])
        fallback = LayoutBatch.from_texts([foreign])
        assert fallback.fallback_decodes == 1
        assert fallback.num_rows == canonical.num_rows
        assert list(fallback.fx) == list(canonical.fx)

    def test_escaped_names_roundtrip(self):
        net = LogicNetwork("escapes")
        a = net.create_pi('a<b&"c"')
        b = net.create_pi("plain")
        net.create_po(net.create_and(a, b), "out>1")
        text = layout_to_fgl(orthogonal_layout(net).layout)
        batch = LayoutBatch.from_texts([text])
        assert batch.fallback_decodes == 0
        assert 'a<b&"c"' in batch.gate_names
        assert "out>1" in batch.gate_names

    def test_mixed_batch_analysis_matches_per_text(self):
        texts = [_mux_text(), _mux_text().replace("    <gates>", "  <gates>")]
        combined = analyze_texts(texts, with_signatures=True)
        singles = [
            analyze_texts([t], with_signatures=True)[0] for t in texts
        ]
        assert combined == singles


    @pytest.mark.parametrize(
        "old, new",
        [
            ("<type>INV</type>", "<type>CONST0</type>"),
            ("<type>PI</type>", "<type>AND</type>"),
            ("<x>0</x>\n                <y>0</y>\n                <z>0</z>",
             "<x>0</x>\n                <y>0</y>\n                <z>1</z>"),
            ("<y>1</y>\n            <z>1</z>", "<y>0</y>\n            <z>1</z>"),
        ],
    )
    def test_rejects_what_the_reader_rejects(self, old, new):
        net = LogicNetwork("inv")
        net.create_po(net.create_not(net.create_pi("a")), "f")
        text = layout_to_fgl(orthogonal_layout(net).layout)
        assert old in text
        broken = text.replace(old, new, 1)
        with pytest.raises(FglError):
            fgl_to_layout(broken)
        with pytest.raises(FglError):
            LayoutBatch.from_texts([broken])


class TestFromLayouts:
    def test_object_path_matches_text_path(self):
        text = _mux_text()
        from_text = LayoutBatch.from_texts([text])
        from_objects = LayoutBatch.from_layouts([fgl_to_layout(text)])
        assert list(from_objects.kind) == list(from_text.kind)
        assert list(from_objects.gx) == list(from_text.gx)
        assert list(from_objects.gy) == list(from_text.gy)
        assert list(from_objects.fanin_row) == list(from_text.fanin_row)
        assert from_objects.gate_names == from_text.gate_names
