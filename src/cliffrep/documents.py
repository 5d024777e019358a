"""Pencil files: JSON documents with canonical polynomial strings as leaves.

A document round-trips byte-identically after canonicalization (terms
sorted, coefficients normalized by the parser/printer pair).  A document of
the wrong shape (not an object, a non-integer count, a non-string entry)
raises InputError.
"""
from __future__ import annotations

import json

from .clifford import CliffordRep
from .errors import InputError
from .parsing import parse_poly
from .pencil import LinearPencil, MFPair
from .poly import Poly, PolyRing
from .fields import parse_field
from .reports import digest_bytes


def _integer(value, key: str) -> int:
    # a JSON integer only: no float to truncate, no bool, no numeric string
    if type(value) is not int:
        raise InputError(f"document key {key!r} must be an integer, got {value!r}")
    return value


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r}")
    return value


def ring_from_header(doc: dict) -> PolyRing:
    if not isinstance(doc, dict):
        raise InputError(f"a document must be a JSON object, got {type(doc).__name__}")
    try:
        field = parse_field(_text(doc["field"], "the field"))
        base = _integer(doc.get("base_vars", 0), "base_vars")
        fiber = _integer(doc["fiber_vars"], "fiber_vars")
    except KeyError as exc:
        raise InputError(f"pencil document missing key {exc}") from exc
    return PolyRing(field, base, fiber)


def _grid_from_strings(grid, ring: PolyRing, parsed: dict) -> list:
    """A matrix of entry strings as Polys.  ``parsed`` maps the strings of
    the document read so far to their Polys: one loader call makes it and
    shares it between its grids, so each distinct string is parsed once."""
    if (not isinstance(grid, list) or not all(isinstance(row, list) for row in grid)
            or len({len(row) for row in grid}) > 1):
        raise InputError(f"a matrix must be a list of rows of one length, got {grid!r}")
    out = []
    for row in grid:
        polys = []
        for text in row:
            text = _text(text, "a polynomial entry")
            poly = parsed.get(text)
            if poly is None:
                poly = parsed[text] = parse_poly(text, ring)
            polys.append(poly)
        out.append(polys)
    return out


def pencil_document(rep: CliffordRep, metadata: dict | None = None) -> dict:
    ring = rep.ring
    doc = {
        "field": ring.field.name,
        "base_vars": ring.base_count,
        "fiber_vars": ring.fiber_count,
        "degree": rep.d,
        "size": rep.size,
        "f": str(rep.f),
        "matrices": [[[str(entry) for entry in row] for row in m]
                     for m in rep.pencil.matrices],
    }
    meta = dict(metadata or {})
    if rep.notes:
        meta.setdefault("notes", list(rep.notes))
    if meta:
        doc["metadata"] = meta
    return doc


def load_pencil_document(doc: dict) -> CliffordRep:
    ring = ring_from_header(doc)
    try:
        f = parse_poly(_text(doc["f"], "f"), ring)
        degree = _integer(doc["degree"], "degree")
        grids = doc["matrices"]
    except KeyError as exc:
        raise InputError(f"pencil document missing key {exc}") from exc
    if not isinstance(grids, list):
        raise InputError(f"matrices must be a list, got {grids!r}")
    if len(grids) != ring.fiber_count:
        raise InputError(f"expected {ring.fiber_count} matrices, got {len(grids)}")
    parsed: dict = {}
    mats = [_grid_from_strings(g, ring, parsed) for g in grids]
    pencil = LinearPencil(ring, mats)
    if "size" in doc and _integer(doc["size"], "size") != pencil.size:
        raise InputError(f"declared size {doc['size']} != actual {pencil.size}")
    metadata = doc.get("metadata", {})
    notes = metadata.get("notes", []) if isinstance(metadata, dict) else None
    if not isinstance(notes, (list, tuple)) or not all(isinstance(n, str) for n in notes):
        raise InputError(f"metadata must be an object whose notes are strings, "
                         f"got {metadata!r}")
    return CliffordRep(pencil, f, degree, notes)


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_pencil(rep: CliffordRep, path: str, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(pencil_document(rep, metadata)))


def read_json(path: str) -> tuple[object, bytes]:
    """(document, raw bytes) of a JSON file; UnicodeDecodeError or
    json.JSONDecodeError, for the caller to report, if it is not UTF-8 JSON."""
    with open(path, "rb") as handle:
        raw = handle.read()
    return json.loads(raw.decode("utf-8")), raw


def read_pencil(path: str) -> tuple[CliffordRep, str]:
    """Load a .pencil file; returns (rep, sha256 of the raw bytes)."""
    try:
        doc, raw = read_json(path)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: not a JSON pencil document ({exc})") from exc
    return load_pencil_document(doc), digest_bytes(raw)


def load_mf_document(doc: dict) -> MFPair:
    ring = ring_from_header(doc)
    try:
        f = parse_poly(_text(doc["f"], "f"), ring)
        parsed: dict = {}
        phi = _grid_from_strings(doc["phi"], ring, parsed)
        psi = _grid_from_strings(doc["psi"], ring, parsed)
    except KeyError as exc:
        raise InputError(f"matrix factorization document missing key {exc}") from exc
    return MFPair(phi, psi, f)


def load_factors_document(doc: dict) -> tuple[list, Poly]:
    ring = ring_from_header(doc)
    try:
        f = parse_poly(_text(doc["f"], "f"), ring)
        parsed: dict = {}
        factors = [_grid_from_strings(g, ring, parsed) for g in doc["factors"]]
    except KeyError as exc:
        raise InputError(f"factor chain document missing key {exc}") from exc
    return factors, f
