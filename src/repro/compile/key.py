"""Content-addressed plan keys.

A :class:`PlanKey` names one compilation *plan* — everything
:func:`repro.codegen.compile_kernel` is a pure function of:

- the **canonicalized source** (token stream, not raw text: whitespace,
  comments, line continuations, identifier case, and numeric spelling
  ``1.0d0`` vs ``1.0e0`` do not change the key; any semantically
  significant edit does, including directive edits — DISTRIBUTE /ALIGN
  lines are part of the token stream, so changing the distribution
  layout changes the key);
- the merged **params** binding, **nprocs**, codegen **backend**, and the
  **strict/lenient** flag;
- a **compiler fingerprint**: a digest over every ``repro`` source file,
  so upgrading the compiler invalidates every previously cached plan.

Keys address three staged artifacts with progressively more inputs:
``parse`` (source only), ``analysis`` (+ params/strict — the
rank-symbolic selection skeleton, deliberately **nprocs-free** so one
entry serves every processor count in a scaling sweep), and ``kernel``
(+ nprocs/backend).  The digests are
SHA-256, so the on-disk store under ``~/.cache/repro-plans`` is safe to
share between processes and branches.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

_FP_ALGO = "sha256"


@lru_cache(maxsize=1)
def compiler_fingerprint() -> str:
    """Digest over the repro package's own source files.

    Any edit to the compiler (a new pass, a codegen fix, a changed
    default) must miss the plan cache — a stale plan compiled by older
    code is *wrong*, not just slow.  Hashing file contents (sorted by
    relative path; mtimes excluded) makes the fingerprint stable across
    checkouts of identical code.
    """
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.new(_FP_ALGO)
    for dirpath, dirnames, filenames in sorted(os.walk(pkg_root)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), pkg_root)
            h.update(rel.encode())
            h.update(b"\0")
            with open(os.path.join(dirpath, name), "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()[:16]


def canonicalize_source(source: str) -> str:
    """Stable canonical form of one mini-Fortran source string.

    Lexes into logical lines and re-renders the token stream: one line
    per logical line, directive lines prefixed ``!hpf$``, tokens joined
    by single spaces, identifiers lowercased (the lexer already does),
    and numeric literals rendered by value (``1.0d0`` == ``1.0e0``).
    Comment, whitespace, case, and continuation edits therefore leave the
    canonical form — and the plan key — unchanged.

    Sources the lexer rejects fall back to conservative text
    normalization (line-ending/trailing-space/blank-line removal), so
    malformed inputs still key deterministically without two different
    bad sources ever sharing a key.
    """
    from ..frontend.lexer import Lexer

    try:
        lines = Lexer(source).logical_lines()
    except Exception:
        normalized = [ln.rstrip() for ln in source.splitlines()]
        return "\n".join(["<raw>"] + [ln for ln in normalized if ln])
    out: list[str] = []
    for line in lines:
        # names and operators carry no value and render as lexed; numbers
        # and strings render by value; the last token is the line's EOL
        body = " ".join([t.text if t.value is None else repr(t.value)
                         for t in line.tokens[:-1]])
        out.append("!hpf$ " + body if line.is_directive else body)
    return "\n".join(out)


def layout_signature(canonical: str) -> str:
    """The distribution-layout slice of a canonical source: its directive
    lines (PROCESSORS/TEMPLATE/ALIGN/DISTRIBUTE/ON_HOME/...).  Stored on
    the key for observability — it is derived from the canonical source,
    so it never adds entropy, but ``PlanKey.layout`` lets tools answer
    "which layout was this plan compiled for" without reparsing."""
    return "\n".join(
        ln[len("!hpf$ "):] for ln in canonical.splitlines()
        if ln.startswith("!hpf$ ")
    )


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class PlanKey:
    """Content address of one compilation (see module docstring).

    ``parse_digest`` / ``analysis_digest`` / ``kernel_digest`` key the
    three staged artifacts; two compilations that differ only in backend
    share parse and analysis entries but not kernel entries.
    """

    source_sha: str
    layout: str
    params: tuple  # sorted (name, value) pairs
    nprocs: int
    backend: str
    strict: bool
    fingerprint: str

    @classmethod
    def for_source(
        cls,
        source: str,
        nprocs: int,
        params: Mapping[str, int] | None = None,
        backend: str = "vector",
        strict: bool = True,
        fingerprint: str | None = None,
    ) -> "PlanKey":
        return cls._for_canonical(
            canonicalize_source(source), nprocs, params, backend, strict,
            fingerprint,
        )

    @classmethod
    def _for_canonical(
        cls,
        canonical: str,
        nprocs: int,
        params: Mapping[str, int] | None,
        backend: str,
        strict: bool,
        fingerprint: str | None = None,
    ) -> "PlanKey":
        """:meth:`for_source` on an already canonicalized source."""
        return cls(
            source_sha=hashlib.sha256(canonical.encode()).hexdigest(),
            layout=layout_signature(canonical),
            params=tuple(sorted((str(k), int(v)) for k, v in (params or {}).items())),
            nprocs=int(nprocs),
            backend=backend,
            strict=bool(strict),
            fingerprint=fingerprint if fingerprint is not None
            else compiler_fingerprint(),
        )

    # -- staged digests ----------------------------------------------------
    @property
    def parse_digest(self) -> str:
        return _digest({
            "stage": "parse",
            "source": self.source_sha,
            "strict": self.strict,
            "fp": self.fingerprint,
        })

    @property
    def analysis_digest(self) -> str:
        # Deliberately nprocs-free: the artifact at this tier is the
        # rank-symbolic selection skeleton, valid for every processor
        # count with this source/params/strict combination — one entry
        # fans out to a whole scaling sweep.
        return _digest({
            "stage": "analysis",
            "source": self.source_sha,
            "params": list(self.params),
            "strict": self.strict,
            "fp": self.fingerprint,
        })

    @property
    def kernel_digest(self) -> str:
        return _digest({
            "stage": "kernel",
            "source": self.source_sha,
            "params": list(self.params),
            "nprocs": self.nprocs,
            "backend": self.backend,
            "strict": self.strict,
            "fp": self.fingerprint,
        })

    def describe(self) -> str:
        return (
            f"src {self.source_sha[:12]} params {dict(self.params)} "
            f"nprocs {self.nprocs} backend {self.backend} "
            f"{'strict' if self.strict else 'lenient'} fp {self.fingerprint}"
        )
