"""Pinned output of the front end over every registry workload.

For each workload the source, the goal and the setup goals are
tokenized and parsed; two SHA-256 digests pin the ``(kind, text,
value)`` token stream and ``term_to_string`` of every parsed term.
Token positions are pinned separately, by ``test_tokens.py``.  A
change to the tokenizer or the reader that alters any token or term of
a shipped program fails here.
"""

import hashlib

import pytest

from repro.prolog import parse_program, parse_term, term_to_string
from repro.prolog.tokens import tokenize
from repro.workloads.registry import all_workloads

DIGESTS = {
    "bup-1": ("db5bdab8f1de248e7946840fd4e48819ab48965bcdce2eaf97dbf1dfbea165d5",
        "ca96a3355af1ad54eb672adb14fe9227b39727271ba681eda5661f278e73c5f9"),
    "bup-2": ("30f4fa9631f41b41e10e25522ce36753c661dc61063ef04285997c90cb84cb43",
        "784b9912129ee44adde44398089d7ff28ba8b660868e7a61f0d4a1775f3e218d"),
    "bup-3": ("f97bf352f4fe5bf8a041e568461d1696e8797e180f0da84bb30e46e35a07fc96",
        "707ee8fcffb1bcd3783758ef56c7c5f3ee0d734d7ae343dba2f6f294aef2ea2d"),
    "bup-eval": ("f998f4ad8fba2e77888bb11dc6a16814ca65c3e9de57f02282deb9b758f58107",
        "b37934eb79879df8082f9de7051a88334f3c197d4e7d38460cb6c2c720efe451"),
    "harmonizer-1": ("14c9186ee6c95e596964cc856345f474e255a5eedcfd3de9744dc108832d0247",
        "9f87255e2bbf48322376105bfabc56e5594559d5b9984984d5eea77b65885a4f"),
    "harmonizer-2": ("558617089d4d469cc3d1715c5e75e014eb11bc2426fa693b2d2242ae16214c4f",
        "9c5b9a49e278e4a3e4e454cb831d1b935466434e336568c701678c9785ccf40b"),
    "harmonizer-3": ("fa7e2c93acd6c0790ce76d40042a30a9aa08d3eddee76664ccf7d365723707c5",
        "937238d0f1c1bf83bb558de26435b370c41bef20a2ebf7269fe8e2b3d1a28d14"),
    "lcp-1": ("5428633c6fe8c9728e747ae4f83bc02efcbd1d8a12ad462f1ea8bd950a6d026e",
        "7d41589111b5ffca2b801ab8539400f5e4bb556b979193195f24ca90c63b467c"),
    "lcp-2": ("d6d4e424e0fbc8d0b3db48831a54415e81ee936d9d5326bcebe6865f32347c98",
        "3eba59e3532e2a9687fa73c7b4712930c53de1d2ae46f88b5b21317ea9240d93"),
    "lcp-3": ("022f8450e07c7b531010112bf5160075d09a7ac8c6f89e2296523b95402e9964",
        "3b62ae0db7da876a7d106c8002f581db5cb75f42b7b0d5a32b032598eebae630"),
    "lcp-eval": ("310e0ca2e00b6c4a60c90b83789c0ae8515652d218c4a2d508c481e486df9c5b",
        "91d243d55cde632d6cab511abb7c8d48375fc5d81accf19f8e0d6ac5a8e9b929"),
    "lisp-fib": ("aa0fa8d0ada3a6c35742a885ed852c623006f120f9b2cf9810d320241b22ac79",
        "1dcb2597f52d2a4381898acbb4893dacb5512f93e1b5d634278b8327b446a72e"),
    "lisp-nreverse": ("b132782b14d415f573204a9f8d81dc303f6982826fb1246f667110133df5175a",
        "9c74b4250d8ba13f272a3c12c31ae8cff1b1909a402ae397dd65f17e556c8524"),
    "lisp-tarai": ("8cf8bc148c53912437815e9c5408eaab3c6f7b9b0c9ba209d43ce1f3ed9e02b0",
        "2ab35db83d3595def96aeb53d154a9a94ee33bcde6e2d7081f6eb1ff9cdde19a"),
    "nreverse": ("b73de969c77fe9b25cab8311d5b4ec63f42445b49bd120e5ff664fc0f0ab032d",
        "dabe9b5c8e55b6d83fb7ef822678c4a02bb63be6ff2ea904d565af494079f15b"),
    "puzzle8": ("91eeba018792c8a5f99355062cfc83e21268f0dfa5448f07869e22f21279b6d9",
        "1af6bf62b9f70dab80c4b6bd4dfdd13dd58542df620e2acdbd3278fe6e60984b"),
    "qsort": ("43fe77e6ada48143110c14f1e21c9ed46c9a6a3654ad9c70d1cd36c9f3beb6ce",
        "2e580495fadb2cc36b5099d655b96e301e9532495d624de6e0cd334d2e2f71b8"),
    "queens-all": ("c6172db59a14ffe093bee81c885b8f4e4cc35ffb2d59cb5834d1de4ee4b7a265",
        "1a9b8f53e27ba111426dd409d7f28f821fabd20d9985e802fd3f02f636aecefa"),
    "queens-one": ("c1aa6ccce0c2722a6199bd576bb652b37c7b6e0f9f9bdfbdcc36fd1044ecd2ed",
        "4421dfe0690e991f7bf0e10bdcf02d96121548dace55ff975b0d7112bbd10fac"),
    "reverse-function": ("e90fb24707133fa0da7ada6025da0d1e7bc7a6d5c3d5c977a2c63334a7ae9730",
        "e987d19f770a483de9f17730341245a8fd37968db401d6744b5573fad23e049e"),
    "slow-reverse": ("13418accc0e70b7224f8649d43e1491b7d4c4d4f03f076c27289544429fbf712",
        "8d28c91bc2e99a4948be3f9394a458bad9488d84d587ff9fd4ad5456ecf96704"),
    "tree": ("ec3b23b27551a244b28491165d1008b665860a45a20a6c61a90796e330eaf2c1",
        "917be2f6c941c5a479353b26ab7b1d26c286df44d0cbeb1cdd2f47d7b262bfbe"),
    "window-1": ("a79f064eb610fa2ecd0f56c2eb416c4e2f3b68a39314b8d51e8b9106fab35fe6",
        "84112958fb2a662ea9606d02854c1a3009f930b0ae1a34d90c5b0e3ea423eead"),
    "window-2": ("30127814ea4e4055032a9029f216bb8770881b8a890dbaf72c32c65dc5a6d7b3",
        "1fa3b201a594cd029d1acc3278319a4fea1322e3a7fac0b251c6c3653aecdbf1"),
    "window-3": ("d8860b29b0cae4d880da7115dd8c55580f0df1695c7e9f8c9d0ef7b42a71deaf",
        "7b0176d076156a2758a40427debd4637aabd10e777cfcd75b4ce9ab25decc3dc"),
}


def token_digest(workload) -> str:
    digest = hashlib.sha256()
    for text in (workload.source, workload.goal, *workload.setup_goals):
        for token in tokenize(text):
            digest.update(f"{token.kind.name}\t{token.text!r}\t{token.value!r}\n".encode())
        digest.update(b"\0")
    return digest.hexdigest()


def term_digest(workload) -> str:
    digest = hashlib.sha256()
    for clause in parse_program(workload.source):
        digest.update(term_to_string(clause).encode() + b"\n")
    for goal in (workload.goal, *workload.setup_goals):
        digest.update(b"\0" + term_to_string(parse_term(goal)).encode() + b"\n")
    return digest.hexdigest()


def test_every_workload_is_pinned():
    assert sorted(all_workloads()) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_front_end_output_unchanged(name):
    workload = all_workloads()[name]
    assert (token_digest(workload), term_digest(workload)) == DIGESTS[name]
