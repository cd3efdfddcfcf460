"""Pinned report documents: the sha256 of `json.dumps(doc, indent=2)` for
every catalog entry's theorem document, its theorem document with trace and
its analyze document.

Any change to what a document says, or to how it is laid out, changes a
digest; a change that means to alter the documents must re-pin them.
"""

import hashlib
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from reflext.catalog import entry, list_entries
from reflext.reports import analyze_document, theorem_document
from reflext.theoremlab import check_hypotheses, verify_theorem

# name: (theorem, theorem with trace, analyze)
DIGESTS = {
    "A2": (
        "5e20df95aa0a990d5f2976a1094116ab2cab02e5d8dbc249e4af536f02210631",
        "7a3eed24f38653b1a1e6ad89bd21055118d4478a1cc8456b094123bd8fcc4758",
        "c1b869c4845c6bbe2e2387dc8353308b0574d35a426b111821575f31d69bb47a",
    ),
    "A3": (
        "5eeda5c5ac14369b412c30ae5909737ac8e878f92a97e027a90f1772fac9fc89",
        "7915c7e178e46d0e526d10ffef44f973632e122f022c22a73f92f0bc18e52278",
        "9a1bbc634af6673229e3f0b9106a338ef37e36d0d2ef4ea7e3cbcc51892919e2",
    ),
    "B2": (
        "b828a13d965a3ef60760a959df06f0b3a2535850032362d721c359495795b4dd",
        "53a90d6fa741440be7c58880e64e509935307f9218b18fd7ea8a2488be773317",
        "2698a26744a76b8fade2dafce6b3d9c12fe81a9cb7a5adb37ff3eaa87eaa17bc",
    ),
    "G2": (
        "106207f47538d4489e7945c3b031469a163a72d8edcb6500692b4b0002814076",
        "3445a622fb662bbbf2bce8740a72d47dfcc92edcaa917a24bd5ba0c582c9d1d4",
        "323822e9a64e2a13fb692d9092d4e897f349b09f9fabce7531431b477c38eb61",
    ),
    "H2-5": (
        "4b741606255cf01084b2ab2dc2b8f9fea76a71feb61448316c3ae3949260f87f",
        "c76e02a36e2bb2da3e104f9d99b40496fe77e0d95b03a9f6a95182b8593eddd1",
        "4c40d84e17cf6c9d649dbd97a1160d8a1ac8e36e1fb62a751c209fe81300bb58",
    ),
    "cond4-fail": (
        "ab9b07ec3f5d269e2cb3f07c54ab60b8b5d71ca3439656c92803f9135c35d23e",
        "ab9b07ec3f5d269e2cb3f07c54ab60b8b5d71ca3439656c92803f9135c35d23e",
        "8eb16ebda58fd0e97d4986b30facca42a22aaa1a9eeb7225a9a6a4f30a573824",
    ),
    "reducible-direct-sum": (
        "26d62da4c676e1a77ffe0f6f4a2868b4612161af7a897295431606678a1d7f74",
        "26d62da4c676e1a77ffe0f6f4a2868b4612161af7a897295431606678a1d7f74",
        "074113c8d8fcf834609eab769bd76ff12b5df737c454a124b24da5cfeadff898",
    ),
    "A2-redundant": (
        "29cfab5a7f2c94e408ddb4e2a5597d4045c2ec9b90ff4221da0632bf7554ed64",
        "93567c7101008ba810ed100647f15ffda4a988b38758c743a5ee63e51e7b46a2",
        "593a731fcc63d6f708c2e85baae585f39c9101152d50f53921b430dc3a453120",
    ),
    "dihedral-0-0": (
        "ab21402b112a5547e343d287784ef77f87039877a7f7780496a0bbcf02301f45",
        "ab21402b112a5547e343d287784ef77f87039877a7f7780496a0bbcf02301f45",
        "3b50fdd73d395d151c38f2c44e640986812be8d5910f7df94ba684cb29e5b567",
    ),
    "dihedral-0-1": (
        "233431165a7a244b422173bcbf29d0c5125596023a0112d41c1c0c09b9ffa971",
        "233431165a7a244b422173bcbf29d0c5125596023a0112d41c1c0c09b9ffa971",
        "62f768e108ffb56169906d087a6691ede803d1f1e79378443e5d3c292a8910f8",
    ),
    "dihedral-0-2": (
        "ccf3dfd9afccb394f5dfb78a814a26b0a749554334df0ca4aa8bbc05296b98c9",
        "ccf3dfd9afccb394f5dfb78a814a26b0a749554334df0ca4aa8bbc05296b98c9",
        "1280bb4b3b28b0319f066b9a3c668c835cbc35faaab667f52b2af53f710562e2",
    ),
    "dihedral-0-3": (
        "ee82bc254f7b02e3d0b2c6757418ea51e42b76bdb22c53cf1e827733c0ad4fad",
        "ee82bc254f7b02e3d0b2c6757418ea51e42b76bdb22c53cf1e827733c0ad4fad",
        "23e180da73deb5b890e530ecf84fa0ff95d4ec8bf5b85a6309e68decbe5395f9",
    ),
    "dihedral-1-0": (
        "3d8ff7851b20b39ba40990eac694d9ee125d319c95adb3b630d6249ee3591417",
        "3d8ff7851b20b39ba40990eac694d9ee125d319c95adb3b630d6249ee3591417",
        "8e42a0654e4bbe8d42e2e9d33013d727a7e20a5bc5e847591c014a87d798039d",
    ),
    "dihedral-1-1": (
        "a7f5939e9384675339f86b15c92746c627f23c69c20c42568d4dd9155c705754",
        "daad62eb5d530436c83c8d08056215bcce7fd49821f6075b88f87cf8190466fa",
        "3cb2c25c55bb5b18fe6f080e103ada683d24760d1a4fe4cc18443bcb13779798",
    ),
    "dihedral-1-2": (
        "1a47733808b8e709b13ba27ba393cdc67997d673a58a0e3119cbd9ccbc5782e3",
        "95e48a89aed3bbdbeb1d4c2a1bde04f65acab34e7edfef631d11be001fd32c19",
        "c8dcc977cfccde71cbd5434c3a8da5302734186ee18c574397f56e2ca541943f",
    ),
    "dihedral-1-3": (
        "4589203407ee53026eb15a53d162fabf940aade967265480b7d3ef87b69b968f",
        "427f15c41a4ab9b50515947abfd3539f7bc4f3179f56020999582ca315b33592",
        "6d5ab9afeca3466aabb708373f8ea8334e4040d7bcb9a0113325d7f0f747e265",
    ),
    "dihedral-2-0": (
        "b8ceb6d417523007f9de44781d33288ef17e444f1c1421a9c8ef379d3bdef83a",
        "b8ceb6d417523007f9de44781d33288ef17e444f1c1421a9c8ef379d3bdef83a",
        "a87e734b724af5a28b355b31cc5a4d8dee7871b17eedb7824545e739e3acf899",
    ),
    "dihedral-2-1": (
        "76818819157e36b75d3844eb04f0a6eb6967737a8ae2634fa18288df5f58ad4b",
        "a7a5679c4dab96f3ad352cadef4862d44f71a985d41b08f4f5b857f686c4087f",
        "a21ce6022c59425a6bff265363f68161c3206d4eb8f5135a815da9dd4cfb76fc",
    ),
    "dihedral-2-2": (
        "0a4020f9641702fde997b8c9289cd16af68a6160645926502a1a39f7b204dbab",
        "0a4020f9641702fde997b8c9289cd16af68a6160645926502a1a39f7b204dbab",
        "23c0eb1c1379e310716904fdec49f8010f0b373fa30ba5ce7fa4c63835c146b8",
    ),
    "dihedral-2-3": (
        "d2ecda2d7e5bf52c5f47fadbd21a1ef1f73034e24f8516b178ae8f215a277fae",
        "3492c45fab3a15aa818b4be8f42d8831b381e06ccefb2707ec7a4addafc2f5d6",
        "032ac73840814d49ea48f30862effa2306477a73b16663d4ca7f34a556769ad1",
    ),
    "dihedral-3-0": (
        "360fde9fe47664e85e58bbe30d61af6e556e0bf9bd4ff1d9890cbf4d48359cf3",
        "360fde9fe47664e85e58bbe30d61af6e556e0bf9bd4ff1d9890cbf4d48359cf3",
        "cbcb6e89cdc35850fd50f9210e0f6cd965ec2871ab34d54c5ac132f6d9405a05",
    ),
    "dihedral-3-1": (
        "7b3dac4f2f438d6b36ee78eb5e37818afbe90f55c5a4e74dda46696fabb40638",
        "8f553eb5fbef8600d09850d3ac0aeaef7dd1d205cd446551cdc373952083049f",
        "653ac43266ce94fc4c5c595c601dca8098b7327d7b2c67b205dde3a13e59a749",
    ),
    "dihedral-3-2": (
        "951902d2727f037ff28167e0cec4e4419ebfcfaab47e4f3d2e7d371005572d18",
        "f666ac10df7217e28bb541e428f9904f988c888efe238bb061a3c67bcd170579",
        "c14cdde51f2076612be8dc04a1a57760b522c4aad7896c439378120b6efd92a8",
    ),
    "dihedral-3-3": (
        "0ab7e0638b8f6f1f87fa5339096ca755f224fe856129bf1ef14a9f1158658a48",
        "5cb02337045a942770b30e1aaec619a8b5700fff0f84b955809b8acb8a30fd12",
        "c4169a20d5071220ecbfa3fdfafbe9ccc6d360f60948cdd9b99a8ef7cbeec94d",
    ),
}


def _digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


def test_every_catalog_entry_is_pinned():
    assert sorted(DIGESTS) == sorted(list_entries())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_documents_match_their_pinned_digests(name):
    rep = entry(name).representation
    got = (
        _digest(theorem_document(verify_theorem(rep), rep, name)),
        _digest(theorem_document(verify_theorem(rep, trace=True), rep, name)),
        _digest(analyze_document(rep, check_hypotheses(rep), name)),
    )
    assert got == DIGESTS[name]


def _sweep_cases(seed, kinds):
    """The seeded perfbench sweep inputs of the given kinds, in sweep order."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.append(root)
    inputs = importlib.import_module("perfbench.inputs")
    return [c for c in inputs.sweep(seed) if re.match(rf"r\d-({'|'.join(kinds)})\W", c.id)]


# one sha256 over the theorem and analyze documents of the 64 seed-7 sweep
# inputs that fail condition 3 or 4, several of them conjugated: the catalog
# above has no conjugated reducible witness
REDUCIBLE_SWEEP_DIGEST = "5868e6e37bceb86be5344fae3f41d46ba0cd47ba8ebf38e20f12e880d5a49d62"


def test_reducible_sweep_documents_match_their_pinned_digest():
    cases = _sweep_cases(7, ("singular", "asymmetric"))
    assert len(cases) == 64
    digest = hashlib.sha256()
    for case in cases:
        rep = case.rep
        theorem = theorem_document(verify_theorem(rep), rep, case.id)
        digest.update(json.dumps(theorem, indent=2).encode())
        analyze = analyze_document(rep, check_hypotheses(rep), case.id)
        digest.update(json.dumps(analyze, indent=2).encode())
    assert digest.hexdigest() == REDUCIBLE_SWEEP_DIGEST
