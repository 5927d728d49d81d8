"""Spans around calls into quasirep's modules, recorded from outside the program.

A :class:`Tracer` replaces each traced function with a wrapper under every
name that binds it: the defining module, each module that imported it by
name (``structure`` binds ``random_channel``, ``rank_range`` and others
directly) and the package namespace.  Methods are wrapped on their class,
and ``Channel`` through its ``__init__``.  A stack of child durations gives
each span its self time: its duration minus the time of the spans it
caused.  Spans are aggregated per name in memory and read out at the end.
"""

from __future__ import annotations

import time
from collections import Counter
from types import ModuleType

import quasirep
from quasirep import cli, complexify, frames, gpt, kirkwood_dirac, linalg, structure

MODULES = {
    "linalg": linalg,
    "complexify": complexify,
    "frames": frames,
    "kirkwood_dirac": kirkwood_dirac,
    "gpt": gpt,
    "structure": structure,
    "cli": cli,
}

# Functions wrapped in a span, per module.  "Class.method" names wrap a method.
SPANS = {
    "linalg": ("haar_unitary", "rank_range", "numerical_rank"),
    "complexify": ("monoidal_coherence", "pair_kron", "apply_complexified", "complexify_map"),
    "frames": ("Channel.__init__", "represent_channel", "canonical_dual", "frame_from_json"),
    "kirkwood_dirac": ("kd_frame_pair",),
    "gpt": ("make_system", "identity_resolution", "random_channel", "channel_to_process"),
    "structure": ("audit_representation", "Representation.apply", "verify_decomposition",
                  "extract_chi", "extract_phi"),
    "cli": ("main",),
}
# Called tens of thousands of times on tiny matrices: a span would distort its
# time, so it is only counted.
COUNTED = {"linalg": ("as_cmat",)}


def span_name(module: str, attr: str) -> str:
    """``frames.Channel`` for the constructor, else ``<module>.<attr>``."""
    return f"{module}.{attr.removesuffix('.__init__')}"


class Tracer:
    """Per-name call counts, self time and exceptions, plus extra counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.raised: Counter = Counter()
        self.counters: Counter = Counter()
        self._children: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.self_s, self.raised, self.counters):
            table.clear()

    def _span(self, name: str, fn, after=None):
        children = self._children

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[name] += elapsed - children.pop()
                self.calls[name] += 1
                if children:
                    children[-1] += elapsed
            if after is not None:
                after(args)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _channel_built(self, args) -> None:
        ch = args[0]
        self.counters["frames.Channel.kraus_in"] += len(ch.kraus)
        self.counters["frames.Channel.superop_madds_computed"] += (
            len(ch.kraus) * (ch.d_in * ch.d_out) ** 2
        )

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install_function(self, module: ModuleType, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        for namespace in (quasirep, *MODULES.values()):
            for bound, value in list(vars(namespace).items()):
                if value is original:
                    self._patch(namespace, bound, wrapper)

    def install(self) -> None:
        for mod_name, attrs in SPANS.items():
            module = MODULES[mod_name]
            for attr in attrs:
                name = span_name(mod_name, attr)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    after = self._channel_built if cls is frames.Channel else None
                    self._patch(cls, method, self._span(name, getattr(cls, method), after))
                else:
                    wrapper = self._span(name, getattr(module, attr))
                    self._install_function(module, attr, wrapper)
        for mod_name, attrs in COUNTED.items():
            module = MODULES[mod_name]
            for attr in attrs:
                wrapper = self._count(span_name(mod_name, attr), getattr(module, attr))
                self._install_function(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def module_totals(self) -> dict[str, dict[str, float]]:
        """``self_s`` and ``raised`` summed over each module's spans."""
        totals = {m: {"self_s": 0.0, "raised": 0} for m in MODULES}
        for name, value in self.self_s.items():
            totals[name.split(".")[0]]["self_s"] += value
        for name, value in self.raised.items():
            totals[name.split(".")[0]]["raised"] += value
        return totals
