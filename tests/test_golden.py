"""Canonical CLI outputs, pinned byte for byte.

Each case runs one cliffrep command in process on a small fixed corpus and
compares its exit code and the sha256 of its stdout with the values pinned
in ``GOLDEN``, which were recorded when the case was added.  Same inputs and
seeds must give byte-identical canonical output, so a refactor that moves
any byte fails here; a deliberate output change updates the pinned value
and says why.  Text reports carry wall-clock timings, so the reports run
with ``--json``; the corpus CSV, cohomology tables and pencil documents
carry none.
"""
import contextlib
import hashlib
import io
import json

import pytest

import cliffrep as cr
from cliffrep.cli import cli_dispatch
from conftest import block_quadric_rep, clock_rep, paper_f, paper_phi, quadric_ring

PENCILS = ("block", "clock", "gamma", "hyperplane", "bare", "sum")


def build_corpus(root):
    """The six pencil files, plus the inputs of ``construct block-mf``/``cyclic``."""
    qq = cr.rationals()
    block = block_quadric_rep(qq)
    ring = quadric_ring(qq)
    reps = {
        "block": block,
        "clock": clock_rep(cr.prime_field(7), [1, 2, 4]),
        "gamma": cr.gamma_quadric_rep(cr.PolyRing(cr.prime_field(101), 0, 4),
                                      [1, -1, 2, -2]),
        "hyperplane": cr.hyperplane_rep(
            cr.parse_poly("t1*y0 + y1", cr.PolyRing(qq, 1, 2))),
        "bare": cr.CliffordRep(cr.extract(paper_phi(ring)), paper_f(ring), 2),
        "sum": cr.direct_sum(block, block),
    }
    for label, rep in reps.items():
        cr.save_pencil(rep, str(root / f"{label}.pencil"), metadata={"label": label})
    (root / "pair.json").write_text(json.dumps({
        "field": "QQ", "fiber_vars": 4, "f": "y0*y3 - y1*y2",
        "phi": [["y0", "y1"], ["y2", "y3"]],
        "psi": [["y3", "-y1"], ["-y2", "y0"]]}))
    # t = 8 and 16: sizes where the structure checks run on arrays.  They sit
    # in a subdirectory so that the corpus cases do not certify them.
    big = root / "t8"
    big.mkdir()
    gamma = cr.gamma_quadric_rep(cr.PolyRing(cr.prime_field(101), 0, 6),
                                 [1, -1, 2, -2, 3, -3])
    conj = cr.conjugate(gamma, [[pow(i + 2, j, 101) for j in range(8)]
                                for i in range(8)])
    big_reps = {
        "gamma": gamma,
        "conj": conj,
        "sum": cr.direct_sum(gamma, conj),
        "twist2": cr.twist_by_free(gamma, 2),
        "gamma-qq": cr.gamma_quadric_rep(cr.PolyRing(qq, 0, 6),
                                         [1, -1, 2, -2, 3, -3]),
    }
    for label, rep in big_reps.items():
        cr.save_pencil(rep, str(big / f"{label}.pencil"))
    (root / "chain.json").write_text(json.dumps({
        "field": "QQ", "fiber_vars": 2, "f": "y0^2*y1 + y0*y1^2",
        "factors": [[["y0"]], [["y1"]], [["y0 + y1"]]]}))


def cases():
    """(case name, argv); ``@name`` stands for a file in the corpus root."""
    out = []
    for name in PENCILS:
        out.append((f"verify-{name}", ["verify", f"@{name}.pencil", "--json"]))
        out.append((f"det-{name}", ["det", f"@{name}.pencil", "--json"]))
        for seed in ("0", "3"):
            out.append((f"ulrich-{name}-s{seed}",
                        ["ulrich-check", f"@{name}.pencil", "--json",
                         "--seed", seed]))
    for name in ("block", "bare", "sum"):
        out.append((f"det-force-{name}",
                    ["det", f"@{name}.pencil", "--force", "--json"]))
    for name in ("block", "clock", "gamma", "sum"):
        for seed in ("0", "3"):
            out.append((f"irreducible-{name}-s{seed}",
                        ["irreducible", f"@{name}.pencil", "--json",
                         "--seed", seed]))
    out.append(("irreducible-bare", ["irreducible", "@bare.pencil", "--json"]))
    for name in ("gamma", "conj", "sum"):
        for seed in ("0", "3"):
            out.append((f"irreducible-t8-{name}-s{seed}",
                        ["irreducible", f"@t8/{name}.pencil", "--json",
                         "--seed", seed]))
    out.append(("irreducible-t8-gamma-qq",
                ["irreducible", "@t8/gamma-qq.pencil", "--json"]))
    for a, b in (("gamma", "conj"), ("conj", "gamma"), ("sum", "sum"),
                 ("sum", "twist2"), ("twist2", "sum")):
        out.append((f"equiv-t8-{a}-{b}",
                    ["equiv", f"@t8/{a}.pencil", f"@t8/{b}.pencil", "--json",
                     "--seed", "3"]))
    for a, b in (("block", "block"), ("clock", "clock"), ("gamma", "gamma"),
                 ("sum", "sum"), ("block", "sum"), ("block", "bare")):
        out.append((f"equiv-{a}-{b}",
                    ["equiv", f"@{a}.pencil", f"@{b}.pencil", "--json",
                     "--seed", "3"]))
    for seed in ("0", "3"):
        out.append((f"corpus-s{seed}",
                    ["ulrich-check", "--corpus", "@", "--seed", seed]))
    out += [
        ("ulrich-block-gf7", ["ulrich-check", "@block.pencil", "--json",
                              "--prime", "7", "--max-degree", "3"]),
        ("search-gf3-hit", ["search", "--field", "GF(3)", "--f", "y0^2 - y1^2",
                            "--d", "2", "--t", "2", "--seed", "5",
                            "--budget", "3000", "--json"]),
        ("search-gf5-hit", ["search", "--field", "GF(5)", "--f", "y0^2 - 2*y1^2",
                            "--d", "2", "--t", "2", "--seed", "1", "--budget",
                            "6000", "--json"]),
        ("search-gf7", ["search", "--field", "GF(7)", "--f", "y0^2 - 3*y1^2",
                        "--d", "2", "--t", "2", "--seed", "1", "--budget",
                        "2000", "--json"]),
        ("search-empty", ["search", "--field", "GF(3)", "--f", "y0^2 - y1^2",
                          "--d", "2", "--t", "2", "--budget", "0", "--json"]),
        ("construct-hyperplane", ["construct", "hyperplane", "--fiber-vars", "3",
                                  "--f", "y0 + 2*y1 - 1/3*y2", "--json"]),
        ("construct-clock-roots", ["construct", "clock-shift", "--field", "GF(7)",
                                   "--roots", "1,2,4", "--json"]),
        ("construct-clock-form", ["construct", "clock-shift", "--field", "GF(7)",
                                  "--f", "y0^2 - y1^2", "--json"]),
        ("construct-gamma", ["construct", "gamma", "--field", "GF(5)",
                             "--coeffs", "1,1,1", "--json"]),
        ("construct-block-mf", ["construct", "block-mf", "--input",
                                "@pair.json", "--json"]),
        ("construct-cyclic", ["construct", "cyclic", "--input", "@chain.json",
                              "--json"]),
        ("cohomology-json", ["cohomology", "--n", "3", "--d", "2", "--json"]),
        ("cohomology-text", ["cohomology", "--n", "4", "--d", "3"]),
        ("cohomology-csv", ["cohomology", "--n", "4", "--d", "3", "--csv"]),
        ("cohomology-assert", ["cohomology", "--n", "3", "--d", "1", "--j", "1",
                               "--assert-ulrich", "--json"]),
        ("specialize-int", ["specialize", "@hyperplane.pencil", "--at", "t1=5"]),
        ("specialize-frac", ["specialize", "@hyperplane.pencil", "--at",
                             "t1=-1/2"]),
    ]
    return out


def run_case(root, argv):
    """(exit code, sha256 of stdout) of one in-process CLI call."""
    argv = [str(root / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_dispatch(argv)
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


GOLDEN = {
    "verify-block":
        (0, "b1dc993ac21e393c5391470ea0be6e49b00b3259e7ff015af15075ef65aa9e39"),
    "det-block":
        (0, "6e072306ea2fde842a2aab41a1e55633e2860b4dee82f12874e6fc3b146db31f"),
    "ulrich-block-s0":
        (0, "12f63d1374721ee34d62819de81b416de8a152f2ede0c9c9b610effccd44b4ec"),
    "ulrich-block-s3":
        (0, "5805f2e61b2f1209f71373807a1c75bf298cfac48aac32d74cec39b8eea8844b"),
    "verify-clock":
        (0, "b2c4db6f081571318b8d0ca9c7a72e30890eded881207f64e6e7b833991441f6"),
    "det-clock":
        (0, "64abc98cffbd051841549bbbc8d5fe32864389ed2df4a5b711e5781b2f622d89"),
    "ulrich-clock-s0":
        (0, "709e263b91acdd5db8e87cb17ad43ac5ea5bc55b52b7f7bf56b5a17e9620abc4"),
    "ulrich-clock-s3":
        (0, "3374dffd4faac1431a36c7c8f015779252b05464be2edf1c2d1096af1eb8ee0f"),
    "verify-gamma":
        (0, "3c01d51fdcf00be9cd11739bd9b03904b3dc840a871322d8051382fcfcb55e45"),
    "det-gamma":
        (0, "b8fa053d10fa5d1dd350661d97c152ecdc7cdf2d6427e38866c70796b2cb8b60"),
    "ulrich-gamma-s0":
        (0, "2230a9055cef6afcc7bac86a3341cc0639151394f6af221e3f786b3009009b88"),
    "ulrich-gamma-s3":
        (0, "881fd44e651f30c214bfeb8aedb7656887c874d380acd6452cc9b1d6434fc327"),
    "verify-hyperplane":
        (0, "bc5635657797fb30da1aa94ccfbfabeb7a53d09431611b849274677ddbe1fa9f"),
    "det-hyperplane":
        (0, "c156147939980a9c0cb9321708d338ca78956a53972cdaee34bd4c985a980694"),
    "ulrich-hyperplane-s0":
        (0, "8cf4bf93435167d15363d5989554649fe13fd643819ae2f336fa783968ec19b7"),
    "ulrich-hyperplane-s3":
        (0, "143f0b88cc66f97c23ebe5c2b94e07eef0350d0bb5ae2a2a37dbe7dd9ee7537f"),
    "verify-bare":
        (1, "d52b8e7fff67d17b4ce878b7767dcf6c16ad91956650ff0a0619e4a9bff99633"),
    "det-bare":
        (1, "41993ac7aaf43228eb430532522229de944a26df4ac0fe2c0daa6617f8e72ff2"),
    "ulrich-bare-s0":
        (1, "d4c42ba82d6fcaf219a3ebd87c77804ed9526dbcd00c2c98cd200556e3bf812b"),
    "ulrich-bare-s3":
        (1, "235b8bd3f4504172851ff90a8ebce3aa4b8e84a12a37e04d8226a62657700606"),
    "verify-sum":
        (0, "662ea14f18c6dcec788820c7765a4b7016383d6407271b7a785576a0cfecff1b"),
    "det-sum":
        (0, "67467cedfd7bcc5a6a1ad799f4cf4f539d982ed1c1bcef68cd49c631f60871ed"),
    "ulrich-sum-s0":
        (0, "a519fafef3fe30e0ec76fd1956adbfd044059c0a0d4e8ded7ab8fe2d4fa9aa81"),
    "ulrich-sum-s3":
        (0, "ff1a3c24317d57d9dde5f507944b77258c4b681331c229ad744b1a805a5040f4"),
    "det-force-block":
        (0, "6e072306ea2fde842a2aab41a1e55633e2860b4dee82f12874e6fc3b146db31f"),
    "det-force-bare":
        (0, "b140b54f5389524c16b25a71cd0b8cea626770550701b1af412e856a70641f82"),
    "det-force-sum":
        (0, "67467cedfd7bcc5a6a1ad799f4cf4f539d982ed1c1bcef68cd49c631f60871ed"),
    "irreducible-block-s0":
        (0, "1d308b334507072b509576cd16696d7ab16668619b02eb691f942fc950f0c2d5"),
    "irreducible-block-s3":
        (0, "f2e94a73869bbedff65021c65b062af1602d01eb9bd0b0b41de82920ae07acfe"),
    "irreducible-clock-s0":
        (0, "c2ded754a565f151a9a857edbf382893e0954839480a404d08606f7261b260a6"),
    "irreducible-clock-s3":
        (0, "668f0245db3f98497850196da4275956644375877f6eb1636e0c5e8e3d474a52"),
    "irreducible-gamma-s0":
        (0, "3cbc79ab5aa7434e87692d2d27475219f6bf22ebf83320e0fbd68c9c5e7568d1"),
    "irreducible-gamma-s3":
        (0, "b4762cddc974efd298a22fa38c9406f2cd63595775dce77eaef984ad9ce1f1bf"),
    "irreducible-sum-s0":
        (1, "389a4a219b14df9e0c0f03858e13b2cf822781454804d64f621136a04e4b360b"),
    "irreducible-sum-s3":
        (1, "43225d53bc10b2639178f8895761a4487ff6ae6802f1487a67bff490987172c9"),
    "irreducible-bare":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "irreducible-t8-gamma-s0":
        (0, "f0a658d86c5a58348092c6c476b3c7b51ce92c898f2bcc54c7750749a7b0672c"),
    "irreducible-t8-gamma-s3":
        (0, "c3e9f2f04c874ae5817276710d9db53e3345920f5f75969000ed2a874346218e"),
    "irreducible-t8-conj-s0":
        (0, "9c4f619c47d41d8f1c8aaec4f1239968ca8dc504c8bb4e1653aa06185ca755f7"),
    "irreducible-t8-conj-s3":
        (0, "63bacf00687e3e5cb6f2f15fe643b20b2e6a7c1d5bf2b91729b5ceb2d11c37ec"),
    "irreducible-t8-sum-s0":
        (1, "cc9ba8ef23dfd2c5e6ffca45f57ad32ba83068d6a075b893fd79ca275f76c43f"),
    "irreducible-t8-sum-s3":
        (1, "ccb60daa52ca7fdab44a116f5340841ebe3c4ec0599c3ace30fee4839cab3fc1"),
    "irreducible-t8-gamma-qq":
        (0, "612c27296ce975bd9f775e4b7cd23320b81297367455efadf90bfa1c11dc2709"),
    "equiv-block-block":
        (0, "9bb8323b9882ebcfd1b2958c8dce2eab4fe69c80f830b58ed921bfe9901dcd37"),
    "equiv-clock-clock":
        (0, "54996f368bd9b0ee26a6d7a8ca28972d90f80a3473394b8f71b7ccaf8177db48"),
    "equiv-gamma-gamma":
        (0, "d13f6cc50dbde401bcfca505cb2d83f623bd8db3728b428a00271664a1b613a4"),
    "equiv-sum-sum":
        (0, "d594fef67f7473985cbe788f73acbf05ef29c1018f6a649753406f35d20afa34"),
    # a size mismatch reports both Hom dimensions, here [2, 2]
    "equiv-block-sum":
        (1, "4d2c4b2f7447d452de2fa510916b4eec1ca32ac739bc1da4ad858f5e6fa32864"),
    "equiv-block-bare":
        (1, "86956e4e6af6ae5e6cddbe4f8dd6d05b3460741be9d51fb98bd57317c44a26d2"),
    "equiv-t8-gamma-conj":
        (0, "917fb06a7567940b2d312d84a4c255db7445fcdc08423bed6118e25204a29909"),
    "equiv-t8-conj-gamma":
        (0, "ccb7f896d8407af3769d906f177eb28d57ca1d18821f0350e6965aed9b4fb5d5"),
    "equiv-t8-sum-sum":
        (0, "35971e48b123694ce225610e68e4a3ea13fdb511fc1d8016ef4376fe0414a0ae"),
    "equiv-t8-sum-twist2":
        (0, "55ca466ac4f0f37b9555d5b09fe8b6587e2437c39dfa8626f49cb7cad0e6f36b"),
    "equiv-t8-twist2-sum":
        (0, "4dafc215ef3619960c7b10819efbafb5a919c713f43e9acd56cb0981d4c43fae"),
    "corpus-s0":
        (1, "428be093c1bf0c3852ed680797da3b4f5ce00379c63f5a2995921732751e53cd"),
    "corpus-s3":
        (1, "428be093c1bf0c3852ed680797da3b4f5ce00379c63f5a2995921732751e53cd"),
    "ulrich-block-gf7":
        (0, "1e4f4cd63d541eaa13121d96e5868ed1f9e41f6b70bdb523c34f5be893789a3f"),
    "search-gf3-hit":
        (0, "0e2e0ee51c1f21342912cfca019a9e1a2035d430e2bafe309955b91f68886af2"),
    "search-gf5-hit":
        (0, "76d5470f754d6a1e2a915631172694f92d8cd77686a2f10a82be46d7f892f225"),
    "search-gf7":
        (2, "a0be2cb3fd591d710aa77de2c933d724a8a75a6b0da04c76f27b605c75661991"),
    "search-empty":
        (2, "c806c7fe6b520e56602c359fbacd5c4cb085088b9bbd6ae9e57d62a6e64c6b14"),
    "construct-hyperplane":
        (0, "c7ea1038120e8d6244115a6240421bd1265dcb66e936987010cc52fcfb015c32"),
    "construct-clock-roots":
        (0, "b1e5db4c16fb587b8d239e8f336f2097a0f828b21729525999845a8279e44bf0"),
    "construct-clock-form":
        (0, "408ea599769a7dcb8a041a21de510bb9dcebb7a5b5fef0746fb59be975bd372e"),
    "construct-gamma":
        (0, "965849c6ee983c75c76f8146ee58ffc14bb2f14c184718c9e519f78393ee779b"),
    "construct-block-mf":
        (0, "8ac9399257561641e30e404f8a5f88facb20a98e6ace8c06b41eb693771cb818"),
    "construct-cyclic":
        (0, "2dda6040821f7ef6b9eab1966e31176dcd7e76823c301cadc42d9e899b2fe883"),
    "cohomology-json":
        (0, "e410b00ac8b936ab7a1df082eb98b64319cccaee133ee1768d2d19977a0cfe37"),
    "cohomology-text":
        (0, "78eaa4ee84c23029437f54c17daa75e5c375d12bec66e77e729e9f69cb474eb3"),
    "cohomology-csv":
        (0, "742b791a8b7b612ae314faa4865b9964cd552677e12046d788b26640e63406a2"),
    "cohomology-assert":
        (0, "c30dc9e769268e143c34cacf1a06e40fb9dfae04e765e9c7abcef7c8d273fb59"),
    "specialize-int":
        (0, "6654af369c0de06d3f32f13162e6bf78935c43cd177c82db9e005f98839ede19"),
    "specialize-frac":
        (0, "b9411fbb0550b4aeb55bff745e61761a89b5dc2c7c8469d90a6c679121bf67cb"),
}


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    build_corpus(root)
    return root


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_golden_output(corpus_root, name, argv):
    assert run_case(corpus_root, argv) == GOLDEN[name]
