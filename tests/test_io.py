import json
import os
import pathlib
import subprocess
import sys

import pytest

import cliffrep as cr
from cliffrep.cli import build_parser, cli_dispatch
from cliffrep.documents import (dumps_document, load_pencil_document,
                                pencil_document)
from cliffrep.errors import InputError
from conftest import block_quadric_rep, clock_rep, paper_phi, quadric_ring


def test_document_round_trip_bytes(block_rep_qq):
    doc = pencil_document(block_rep_qq, metadata={"label": "block"})
    text = dumps_document(doc)
    again = dumps_document(pencil_document(load_pencil_document(doc),
                                           metadata={"label": "block"}))
    assert text == again


def test_document_preserves_base_vars(qq):
    ring = cr.PolyRing(qq, 1, 2)
    rep = cr.hyperplane_rep(cr.parse_poly("t1*y0 + y1", ring))
    loaded = load_pencil_document(pencil_document(rep))
    assert loaded.ring == ring
    assert loaded.pencil == rep.pencil
    assert loaded.f == rep.f


def test_document_size_mismatch_rejected(block_rep_qq):
    doc = pencil_document(block_rep_qq)
    doc["size"] = 3
    with pytest.raises(InputError):
        load_pencil_document(doc)


def test_save_and_read(tmp_path, block_rep_qq):
    path = tmp_path / "block.pencil"
    cr.save_pencil(block_rep_qq, str(path), metadata={"label": "block"})
    loaded, digest = cr.read_pencil(str(path))
    assert loaded.pencil == block_rep_qq.pencil
    assert len(digest) == 64
    # notes survive the round trip
    flagged = clock_rep(cr.rationals(), [1, 1])
    path2 = tmp_path / "flagged.pencil"
    cr.save_pencil(flagged, str(path2))
    loaded2, _ = cr.read_pencil(str(path2))
    assert any("repeated roots" in n for n in loaded2.notes)


def test_report_json_replay(block_rep_qq):
    cert1 = cr.ulrich_certificate(block_rep_qq, cr.CertificateConfig(seed=4))
    cert2 = cr.ulrich_certificate(block_rep_qq, cr.CertificateConfig(seed=4))
    assert cert1.report.to_json() == cert2.report.to_json()


def test_report_exit_codes():
    from cliffrep.reports import Report
    r = Report(subject="x")
    r.add("a", "pass")
    assert r.finalize().exit_code == 0
    r.add("b", "inconclusive")
    assert r.finalize().exit_code == 2
    r.add("c", "fail")
    assert r.finalize().exit_code == 1


@pytest.fixture
def pencil_files(tmp_path):
    paths = {}
    block = block_quadric_rep(cr.rationals())
    paths["block"] = tmp_path / "block.pencil"
    cr.save_pencil(block, str(paths["block"]), metadata={"label": "block"})

    ring = quadric_ring(cr.rationals())
    bare = cr.CliffordRep(cr.extract(paper_phi(ring)),
                          cr.parse_poly("y0*y3 - y1*y2", ring), 2)
    paths["bare"] = tmp_path / "bare.pencil"
    cr.save_pencil(bare, str(paths["bare"]), metadata={"label": "bare-phi"})

    theta = [[cr.rationals().of(v) for v in row]
             for row in ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    conj = cr.conjugate(block, theta)
    paths["conj"] = tmp_path / "conj.pencil"
    cr.save_pencil(conj, str(paths["conj"]), metadata={"label": "conjugate"})

    double = cr.direct_sum(block, block)
    paths["double"] = tmp_path / "double.pencil"
    cr.save_pencil(double, str(paths["double"]), metadata={"label": "double"})
    return paths


def test_cli_verify(pencil_files, capsys):
    assert cli_dispatch(["verify", str(pencil_files["block"])]) == 0
    assert "pass" in capsys.readouterr().out
    assert cli_dispatch(["verify", str(pencil_files["bare"])]) == 1


def test_cli_runs_as_a_module(pencil_files):
    # python -m cliffrep.cli exits with the verdict, not silently with 0
    src = str(pathlib.Path(cr.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "cliffrep.cli", "verify", str(pencil_files["bare"]), "--json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 1
    assert json.loads(run.stdout)["verdict"] == "fail"


def test_cli_det(pencil_files, capsys):
    assert cli_dispatch(["det", str(pencil_files["block"]), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["witness"] == {"exponent": 2, "unit": "1"}


def test_cli_equiv(pencil_files, capsys):
    code = cli_dispatch(["equiv", str(pencil_files["block"]),
                         str(pencil_files["conj"]), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["witness"]["verdict"] == "equivalent"
    assert "theta" in payload["checks"][0]["witness"]
    code = cli_dispatch(["equiv", str(pencil_files["block"]),
                         str(pencil_files["double"])])
    assert code == 1  # size mismatch
    capsys.readouterr()


def test_cli_irreducible(pencil_files, capsys):
    assert cli_dispatch(["irreducible", str(pencil_files["block"])]) == 0
    capsys.readouterr()
    assert cli_dispatch(["irreducible", str(pencil_files["double"]), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["witness"]["verdict"] == "reducible"


def test_cli_ulrich_check(pencil_files, capsys):
    assert cli_dispatch(["ulrich-check", str(pencil_files["block"])]) == 0
    capsys.readouterr()
    assert cli_dispatch(["ulrich-check", str(pencil_files["bare"])]) == 1
    capsys.readouterr()


def test_cli_ulrich_json_replays(pencil_files, capsys):
    cli_dispatch(["ulrich-check", str(pencil_files["block"]), "--json", "--seed", "9"])
    first = capsys.readouterr().out
    cli_dispatch(["ulrich-check", str(pencil_files["block"]), "--json", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_corpus(pencil_files, tmp_path, capsys):
    code = cli_dispatch(["ulrich-check", "--corpus", str(tmp_path)])
    out = capsys.readouterr().out
    lines = [line for line in out.strip().splitlines() if line]
    assert lines[0].startswith("label,verdict,t,d,r,hilbert-ok,corank-ok")
    assert len(lines) == 5
    assert code == 1  # the bare-phi entry fails


def test_cli_cohomology(capsys):
    assert cli_dispatch(["cohomology", "--n", "3", "--d", "2", "--j", "2"]) == 0
    out = capsys.readouterr().out
    assert "1" in out
    assert cli_dispatch(["cohomology", "--n", "3", "--d", "2", "--j", "2",
                         "--assert-ulrich"]) == 1
    capsys.readouterr()
    assert cli_dispatch(["cohomology", "--n", "3", "--d", "1",
                         "--assert-ulrich"]) == 0
    capsys.readouterr()
    assert cli_dispatch(["cohomology", "--n", "4", "--d", "3", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "j,h0,h1,h2,h3"


def test_cli_specialize(tmp_path, capsys):
    ring = cr.PolyRing(cr.rationals(), 1, 2)
    rep = cr.hyperplane_rep(cr.parse_poly("t1*y0 + y1", ring))
    src = tmp_path / "param.pencil"
    cr.save_pencil(rep, str(src))
    out_path = tmp_path / "fiber.pencil"
    assert cli_dispatch(["specialize", str(src), "--at", "t1=5",
                         "-o", str(out_path)]) == 0
    fiber, _ = cr.read_pencil(str(out_path))
    assert fiber.ring.base_count == 0
    assert cr.verify_relation(fiber).passed
    # a name given twice, and a negative base-degree bound, are input errors
    assert cli_dispatch(["specialize", str(src), "--at", "t1=2,t1=3"]) == 3
    assert cli_dispatch(["equiv", str(src), str(src), "--max-degree", "-1",
                         "--json"]) == 3
    capsys.readouterr()


def test_cli_rejects_bad_variable_counts(tmp_path, capsys):
    assert cli_dispatch(["search", "--field", "GF(3)", "--fiber-vars", "0",
                         "--f", "y0^2", "--d", "2", "--t", "2"]) == 3
    assert cli_dispatch(["construct", "hyperplane", "--f", "y0 + y1",
                         "--base-vars", "-1"]) == 3
    doc = tmp_path / "empty.pencil"
    doc.write_text(json.dumps({"field": "QQ", "fiber_vars": 0, "matrices": []}))
    assert cli_dispatch(["verify", str(doc)]) == 3
    assert capsys.readouterr().err.count("error:") == 3
    # a search ring with base variables
    assert cli_dispatch(["search", "--field", "GF(5)", "--base-vars", "1",
                         "--f", "y0*y1", "--d", "2", "--t", "2"]) == 3
    assert "base-free" in capsys.readouterr().err


def test_cli_search(tmp_path, capsys):
    out_dir = tmp_path / "hits"
    code = cli_dispatch(["search", "--field", "GF(3)", "--fiber-vars", "2",
                         "--f", "y0^2 - y1^2", "--d", "2", "--t", "2",
                         "--seed", "5", "--budget", "20000",
                         "--out-dir", str(out_dir), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    written = sorted(os.listdir(out_dir))
    assert written and written[0].endswith(".pencil")
    hit, _ = cr.read_pencil(str(out_dir / written[0]))
    assert cr.verify_relation(hit).passed
    # a search without hits is inconclusive: a seeded sample proves no absence
    assert cli_dispatch(["search", "--field", "GF(3)", "--fiber-vars", "2",
                         "--f", "y0^2 - y1^2", "--d", "2", "--t", "2",
                         "--seed", "5", "--budget", "0", "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "inconclusive"
    assert payload["checks"] == [{
        "name": "search", "status": "inconclusive",
        "witness": {"budget": 0, "reason": "no representation among 0 seeded "
                    "samples; a random sample proves nothing about absence"}}]


def test_cli_construct(tmp_path, capsys):
    out = tmp_path / "c.pencil"
    assert cli_dispatch(["construct", "clock-shift", "--field", "GF(7)",
                         "--roots", "1,2,4", "-o", str(out)]) == 0
    capsys.readouterr()
    rep, _ = cr.read_pencil(str(out))
    assert rep.d == 3 and cr.verify_relation(rep).passed

    assert cli_dispatch(["construct", "hyperplane", "--field", "QQ",
                         "--fiber-vars", "2", "--base-vars", "1",
                         "--f", "t1*y0 + y1", "-o", str(tmp_path / "h.pencil")]) == 0
    capsys.readouterr()

    assert cli_dispatch(["construct", "gamma", "--field", "GF(5)",
                         "--coeffs", "1,1,1", "-o", str(tmp_path / "g.pencil")]) == 0
    capsys.readouterr()

    mf_doc = {"field": "QQ", "base_vars": 0, "fiber_vars": 4,
              "f": "y0*y3 - y1*y2",
              "phi": [["y0", "y1"], ["y2", "y3"]],
              "psi": [["y3", "-y1"], ["-y2", "y0"]]}
    mf_path = tmp_path / "pair.json"
    mf_path.write_text(json.dumps(mf_doc))
    assert cli_dispatch(["construct", "block-mf", "--input", str(mf_path),
                         "-o", str(tmp_path / "b.pencil")]) == 0
    capsys.readouterr()
    rep, _ = cr.read_pencil(str(tmp_path / "b.pencil"))
    assert rep.size == 4

    cyc_doc = {"field": "QQ", "fiber_vars": 1, "f": "y0^3",
               "factors": [[["y0"]], [["y0"]], [["y0"]]]}
    cyc_path = tmp_path / "cyc.json"
    cyc_path.write_text(json.dumps(cyc_doc))
    assert cli_dispatch(["construct", "cyclic", "--input", str(cyc_path),
                         "-o", str(tmp_path / "cy.pencil")]) == 0
    capsys.readouterr()


def test_cli_input_errors(tmp_path, capsys):
    assert cli_dispatch(["verify", str(tmp_path / "missing.pencil")]) == 3
    bad = tmp_path / "bad.pencil"
    bad.write_text("not json")
    assert cli_dispatch(["verify", str(bad)]) == 3
    assert cli_dispatch(["construct", "clock-shift", "--field", "QQ"]) == 3
    assert cli_dispatch(["cohomology", "--n", "3", "--d", "2", "--j", "9"]) == 3
    assert cli_dispatch(["nonsense"]) == 3
    good = {"field": "QQ", "fiber_vars": 2, "degree": 1, "f": "y0",
            "matrices": [[["1"]], [["0"]]]}
    ragged = [[["1", "0"], ["0", "0", "0"]], [["0", "0"], ["0", "0"]]]
    for doc in (dict(good, degree="two"), dict(good, fiber_vars="x"), [good],
                dict(good, matrices=[[[1]], [["0"]]]), dict(good, matrices=ragged),
                # counts are JSON integers: no truncated float, bool or string
                dict(good, fiber_vars=2.5), dict(good, degree=1.5),
                dict(good, size=1.5), dict(good, degree=True),
                dict(good, base_vars=0.5), dict(good, degree="1")):
        bad.write_text(json.dumps(doc))
        assert cli_dispatch(["verify", str(bad)]) == 3
    bad.write_text(json.dumps(good))
    assert cli_dispatch(["verify", str(bad)]) == 0
    # a long row must not lose its extra entry
    bad.write_text(json.dumps({"field": "QQ", "fiber_vars": 4, "f": "y0*y3 - y1*y2",
                               "phi": [["y0", "y1"], ["y2", "y3", "y0"]],
                               "psi": [["y3", "-y1"], ["-y2", "y0"]]}))
    assert cli_dispatch(["construct", "block-mf", "--input", str(bad)]) == 3
    # a kind's required option, the pencil-or-corpus choice, sizes, n >= 2
    line = tmp_path / "line.pencil"
    line.write_text(json.dumps(good))
    for argv in (["construct", "gamma"], ["construct", "hyperplane"],
                 ["construct", "block-mf"], ["construct", "cyclic"],
                 ["ulrich-check"], ["ulrich-check", str(line), "--corpus", str(tmp_path)],
                 ["ulrich-check", str(line), "--max-degree", "-1"],
                 ["cohomology", "--n", "1", "--d", "2", "--assert-ulrich"],
                 ["cohomology", "--n", "3", "--d", "2", "--csv", "--json"],
                 ["ulrich-check", "--corpus", str(tmp_path), "--json"]):
        assert cli_dispatch(argv) == 3
    search = ["search", "--field", "GF(3)", "--f", "y0^2 - y1^2"]
    for d, t in (("0", "2"), ("2", "0"), ("2", "-2")):
        assert cli_dispatch(search + ["--d", d, "--t", t]) == 3
    assert cli_dispatch(search + ["--d", "2", "--t", "2", "--budget", "-5"]) == 3
    assert cli_dispatch(["equiv", str(line), str(line), "--budget", "-1"]) == 3
    assert cli_dispatch(["equiv", str(line), str(line), "--max-degree", "-1"]) == 3
    assert cli_dispatch(["irreducible", str(line), "--budget", "-1"]) == 3
    # a modulus that is no prime is an input error, not a failed certificate
    clock = tmp_path / "clock.pencil"
    cr.save_pencil(clock_rep(cr.rationals(), [1, 2, 4]), str(clock))
    for prime in ("4", "1000000"):
        assert cli_dispatch(["ulrich-check", str(clock), "--prime", prime,
                             "--json"]) == 3
    capsys.readouterr()
    # a corpus entry that cannot be read, or is not UTF-8, is an error row,
    # as malformed JSON is
    corpus = tmp_path / "corpus"
    (corpus / "folder.pencil").mkdir(parents=True)
    (corpus / "latin1.pencil").write_bytes(b"\xff not UTF-8")
    assert cli_dispatch(["ulrich-check", "--corpus", str(corpus)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("folder.pencil,error: [Errno")
    assert rows[2].startswith("latin1.pencil,error: 'utf-8' codec can't decode")


def test_cli_parser_built_once():
    assert build_parser() is build_parser()


def test_cli_exit_codes_match_verdicts(pencil_files, capsys):
    for key in ("block", "bare", "double"):
        code = cli_dispatch(["ulrich-check", str(pencil_files[key]), "--json"])
        payload = json.loads(capsys.readouterr().out)
        want = {"pass": 0, "fail": 1, "inconclusive": 2}[payload["verdict"]]
        assert code == want
