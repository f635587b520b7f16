"""Call counting and timing for piforge functions, from outside the package.

`Tracer.install` replaces a function at every module attribute bound to it
(its own module and each `from .x import f` site), so calls made inside
piforge are seen too. Nothing in piforge changes; `uninstall` puts the
originals back.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter


class Tracer:
    def __init__(self, modules, names, per_call=(), watch=None):
        """`names` are "module.function" keys into `modules` (a name ->
        module dict). Per-call durations are kept for the names in
        `per_call`. `watch` maps a name to another traced name: the calls of
        the second made while the first runs are counted under
        "first>second" (say, evaluations inside a shrink)."""
        self.modules = modules
        self.names = tuple(names)
        self.per_call = set(per_call)
        self.watch = dict(watch or {})
        self.stats = {name: [0, 0.0] for name in self.names}
        for name, inner in self.watch.items():
            self.stats[f"{name}>{inner}"] = [0, 0.0]
        self.samples: dict[str, array] = {}
        self._restore: list[tuple[object, str, object]] = []

    def install(self):
        for name in self.names:
            mod_name, func_name = name.split(".")
            original = getattr(self.modules[mod_name], func_name)
            wrapper = self._wrap(name, original)
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        stat = self.stats[name]
        samples = self.samples.setdefault(name, array("d")) if name in self.per_call else None
        inner = self.stats[self.watch[name]] if name in self.watch else None
        nested = self.stats[f"{name}>{self.watch[name]}"] if inner else None

        def traced(*args, **kwargs):
            inner_before = inner[0] if inner else 0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                if samples is not None:
                    samples.append(dt)
                if inner is not None:
                    nested[0] += inner[0] - inner_before

        return traced

    def snapshot(self) -> dict[str, tuple[int, float]]:
        return {name: (s[0], s[1]) for name, s in self.stats.items()}

    def delta(self, before) -> dict[str, tuple[int, float]]:
        return {
            name: (s[0] - before[name][0], s[1] - before[name][1])
            for name, s in self.stats.items()
        }

    def clear_samples(self):
        for samples in self.samples.values():
            del samples[:]

    def median_call(self, name, scale) -> float:
        return statistics.median(self.samples[name]) * scale
