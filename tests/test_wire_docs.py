"""docs/WIRE.md stays complete as the wire protocol grows.

Mirrors tests/test_obs_docs.py: the documentation is part of the
contract.  Every registered payload type (tag, class name, numeric id)
must appear in the byte-level spec, along with every control verb and
binary value type code the codec actually speaks — a new payload or
verb without a spec row fails here before it ships.
"""

import pathlib
import re

from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME_BYTES,
    SUPPORTED_CODECS,
    WIRE_VERSION,
    WIRE_VERSION_BINARY,
    payload_registry,
    registered_payload_types,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
WIRE_MD = REPO_ROOT / "docs" / "WIRE.md"

#: Control verbs the node/hub implementations exchange; each must be
#: documented (in backticks) in the control-frame table.
CONTROL_VERBS = (
    "hello",
    "codec_ack",
    "_start",
    "_ready",
    "_metrics",
    "_stop",
    "_bye",
    "_error",
)

#: Binary value type codes from the spec table; each must appear as a
#: `0xNN` literal in the doc.
BINARY_VALUE_CODES = (0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08)


def doc_text() -> str:
    return WIRE_MD.read_text(encoding="utf-8")


class TestPayloadRegistryCoverage:
    def test_every_tag_documented(self):
        doc = doc_text()
        missing = {
            tag
            for tag in registered_payload_types()
            if f"`{tag}`" not in doc
        }
        assert not missing, (
            f"payload tags registered but missing from docs/WIRE.md: "
            f"{sorted(missing)}"
        )

    def test_every_class_name_documented(self):
        doc = doc_text()
        missing = {
            cls.__name__
            for cls in registered_payload_types().values()
            if f"`{cls.__name__}`" not in doc
        }
        assert not missing, (
            f"payload classes missing from docs/WIRE.md: {sorted(missing)}"
        )

    def test_numeric_ids_match_doc_table(self):
        # The registry table's "| id | `tag` |" rows must agree with the
        # live registry — ids are the binary wire contract.
        doc = doc_text()
        doc_rows = dict(
            (tag, int(numeric_id))
            for numeric_id, tag in re.findall(
                r"^\|\s*(\d+)\s*\|\s*`([a-z_]+)`", doc, flags=re.M
            )
        )
        expected = {tag: numeric_id for numeric_id, tag, _ in payload_registry()}
        assert doc_rows == expected, (
            "docs/WIRE.md registry table disagrees with payload_registry()"
        )

    def test_every_field_list_documented(self):
        # Field order is on the wire (positional binary encoding), so
        # the doc must spell out each class's fields verbatim.
        doc = doc_text()
        problems = []
        for _, tag, cls in payload_registry():
            import dataclasses

            fields = ", ".join(
                field.name for field in dataclasses.fields(cls)
            )
            if fields not in doc:
                problems.append(f"{tag}: expected field list {fields!r}")
        assert not problems, "\n".join(problems)


class TestProtocolConstantsDocumented:
    def test_control_verbs_documented(self):
        doc = doc_text()
        missing = [v for v in CONTROL_VERBS if f"`{v}`" not in doc]
        assert not missing, f"control verbs missing from docs/WIRE.md: {missing}"

    def test_binary_value_codes_documented(self):
        doc = doc_text()
        missing = [
            f"0x{code:02x}"
            for code in BINARY_VALUE_CODES
            if f"0x{code:02x}" not in doc.lower()
        ]
        assert not missing, f"value type codes missing: {missing}"

    def test_versions_magic_and_bound_documented(self):
        doc = doc_text()
        assert "0xB2" in doc
        assert str(WIRE_VERSION) == "1" and '"v": 1' in doc
        assert WIRE_VERSION_BINARY == 2
        assert "MAX_FRAME_BYTES" in doc and MAX_FRAME_BYTES == 1 << 20
        for codec in SUPPORTED_CODECS:
            assert codec in (CODEC_JSON, CODEC_BINARY)
            assert f"`{codec}`" in doc or codec in doc
