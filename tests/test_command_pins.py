"""What the commands print, pinned: one sha256 per command form over the
corpus of ``command_pins``. A change that means to move an output re-pins
here, and CHANGES.md records the old digest, the new one and the reason.
Some refusals quote CPython's own messages (the JSON decoder's, the
recursion limit's, the int-digit limit's): the digests were computed on
Python 3.11, the version CI runs, and another version may word them
differently."""

import command_pins

PINS = {
    "compute": "0b117c048283573b39972a492e110fad012d133bd011caf7e74cd23ff15b9ad1",
    "compute --json": "0151d49ac37cd40d5f475d11f214594290d13784ac14f5aa444e13952b499f03",
    "compute --check": "f0d1e39b2090d8add0d546ab3a07c280d2047784cbf490c455ae7fef8e07a73b",
    "compute --json --check": "dd9bc53bd447232db76cf186a121d47f6ff01100177f7b34bb599c55b115afdf",
    "compute --minimize": "ac0da24c01447db726258ba7502f4a7b34f60b8dc57468af92a2eaff328a69b0",
    "compute --json --minimize": "d35cce606345a4d7e7333aa0918f46f71ad633f7959293aba4a29805962ad835",
    "compute --check dual-route": "423538e115a0bec3d1f62a563b2b526fec90bf2521f0624607213c5ad320049c",
    "compute --json --check dual-route":
        "3bc066e8dbacec4c244dc5b0a5d9ac383c64dfd4495ae0e08a9ff22615cda6e9",
    "compute --json --check --minimize":
        "92d5f47ae9c928a02aeecc7bcff41e17c3e375ab83668995b6cb3741c4985cd7",
    "compute --check bogus": "639d2a7e5b2fad42b9986869d0050e8e1a2de3f931d1125762428369e1aa4e3d",
    "validate": "21bdea2256345a86d1993ecaacd015e806f0a4339229cc73a420c88add6236b9",
    "validate --json": "4b0db5b7fc629247ec9ecdd0c9295238773d860a7685437b57699ea1224a9ed5",
    "minimize": "2c18d2c72e09b63ddabc1e9e00834dba706e3af0270cacae282a6ed52d3fa95c",
    "catalog": "e651d9dfa3c2d6a664409520a7bbd78ed48326c0c7bb26a14efb1a8468fbcc62",
}


def test_command_outputs_are_pinned():
    docs, tags = command_pins.corpus(), command_pins.catalog_tags_run()
    assert len(docs) == 209 and len(tags) == 30
    outs = command_pins.outputs(docs, tags)
    moved = [form for form, digest in command_pins.digests(outs).items()
             if PINS.get(form) != digest]
    # on a failure, the first run that moved against the last commit
    assert not moved, command_pins.explain(outs, docs, tags, moved)
    assert {run[1] for run in outs["compute --check"]} == {0, 1, 3, 4}
    assert {run[1] for run in outs["catalog"]} == {0, 1}


def test_first_moved_names_the_run_and_both_outputs():
    outs = {"compute": [["II", 0, "a\n", ""], ["III", 0, "b\n", ""]]}
    old = {"compute": [["II", 0, "a\n", ""], ["III", 4, "", "over\n"]]}
    shown = command_pins.first_moved(outs, old)
    assert shown.startswith("form 'compute', input 'III'\n")
    assert "before: exit 4\nstdout:\nstderr:\nover\n" in shown
    assert "now: exit 0\nstdout:\nb\nstderr:\n" in shown
    assert command_pins.first_moved(outs, outs) is None
