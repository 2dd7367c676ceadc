"""Deterministic random-number streams.

Every stochastic decision in the simulator (victim selection, workload
synthesis, app inputs) draws from a named substream derived from a single
experiment seed, so that (a) runs are bit-reproducible and (b) changing one
component's consumption pattern does not perturb any other component's
stream — a standard requirement for comparable discrete-event experiments.

Victim selection draws a fresh shuffle or index every steal round, so its
paths are served by :class:`DrawSource` batches (``RngStreams.permutations``
/ ``RngStreams.indices``): one numpy call per :data:`BATCH` draws, handing
out exactly the values the per-call ``permutation(n)`` / ``integers(n)``
sequence would have produced (DESIGN.md §8).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigError

#: Draws a :class:`DrawSource` takes from its stream per numpy call.
BATCH = 16


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a name path.

    The derivation hashes the textual path so that streams are independent
    of declaration order and stable across runs and platforms.
    """
    text = f"{int(root_seed)}/" + "/".join(str(n) for n in names)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


class DrawSource:
    """One stream's successive ``permutation(n)`` or ``integers(n)`` draws.

    Fetches :data:`BATCH` draws per numpy call and hands them out one per
    :meth:`draw`: a permutation as a list of ints, an index as an int.
    numpy buffers bounded draws at the bit-generator level and
    ``permuted`` shuffles each row exactly as ``permutation`` does, so the
    k-th draw equals the stream's k-th per-call draw.  The stream itself
    runs up to one batch ahead, which is why a batched path must never be
    drawn from any other way (:class:`RngStreams` enforces it).
    """

    __slots__ = ("kind", "n", "_gen", "_template", "_buf")

    def __init__(self, kind: str, n: int, gen: np.random.Generator,
                 template: "np.ndarray | None") -> None:
        self.kind = kind
        self.n = n
        self._gen = gen
        #: ``BATCH`` rows of ``arange(n)`` for permutations (shared and
        #: read-only: ``permuted`` shuffles a copy); ``None`` for indices.
        self._template = template
        #: Undrawn values of the current batch, last one next.
        self._buf: list = []

    def draw(self):
        """The next draw: a permutation list, or an index."""
        buf = self._buf
        if buf:
            return buf.pop()
        if self._template is None:
            buf = self._gen.integers(self.n, size=BATCH).tolist()
        else:
            buf = self._gen.permuted(self._template, axis=1).tolist()
        buf.reverse()
        self._buf = buf
        return buf.pop()


class RngStreams:
    """A factory of independent named :class:`numpy.random.Generator` streams."""

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._cache: dict[str, np.random.Generator] = {}
        self._sources: dict[str, DrawSource] = {}
        #: One read-only ``(BATCH, n)`` tile of ``arange(n)`` per ``n``.
        self._templates: dict[int, np.ndarray] = {}

    def stream(self, *names: object) -> np.random.Generator:
        """Return the generator for the given name path, creating it once.

        Repeated calls with the same path return the *same* generator object,
        so consumption state is shared along a path but isolated across paths.
        A path already served by a :class:`DrawSource` raises ``ConfigError``.
        """
        key = "/".join(str(n) for n in names)
        gen = self._cache.get(key)
        if gen is None:
            if key in self._sources:
                raise ConfigError(
                    f"stream {key!r} is batched; draw from its DrawSource")
            gen = np.random.default_rng(derive_seed(self.root_seed, *names))
            self._cache[key] = gen
        return gen

    def permutations(self, n: int, *names: object) -> DrawSource:
        """The batched ``permutation(n)`` source for the name path."""
        return self._source("permutations", n, names)

    def indices(self, n: int, *names: object) -> DrawSource:
        """The batched ``integers(n)`` source for the name path."""
        return self._source("indices", n, names)

    def _source(self, kind: str, n: int, names: tuple) -> DrawSource:
        # A path is raw or batched, with one kind and one n: anything else
        # would interleave draws and reorder the stream.
        key = "/".join(str(x) for x in names)
        src = self._sources.get(key)
        if src is not None:
            if src.kind != kind or src.n != n:
                raise ConfigError(
                    f"stream {key!r} is batched as {src.kind}({src.n}); "
                    f"cannot also draw {kind}({n})")
            return src
        if key in self._cache:
            raise ConfigError(
                f"stream {key!r} already draws per call; it cannot be batched")
        template = None
        if kind == "permutations":
            template = self._templates.get(n)
            if template is None:
                template = np.tile(np.arange(n), (BATCH, 1))
                template.flags.writeable = False
                self._templates[n] = template
        gen = np.random.default_rng(derive_seed(self.root_seed, *names))
        src = self._sources[key] = DrawSource(kind, n, gen, template)
        return src

    def fresh(self, *names: object) -> np.random.Generator:
        """Return a brand-new generator for the path (no caching)."""
        return np.random.default_rng(derive_seed(self.root_seed, *names))
