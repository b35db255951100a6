"""In-memory span tracer that wraps navfuse's layer entry points from outside.

Each wrapper is installed at the name its caller looks up, because wrapping
any other binding silently records nothing: ``pipeline.py`` binds
``ukf_predict``/``ukf_update`` by name, ``ukf.py`` calls its own module
globals (and ``propagate_states``/``process_noise_matrix`` imported from
``process``), and the pipeline reaches ``gps_fix_to_measurement`` through
the ``measurements`` module.  A span is (name, start, end, parent); spans
stay in memory until the run ends, which writes them out.  A span's self time is its duration
minus the durations of its direct children, which nest inside it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from navfuse import adaptive, core, measurements, pipeline, retrodiction, ukf


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: dict[int, str] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` recording one span per call.  ``observe(idx, args,
        kwargs, result)`` runs after the span closes, inside the parent's."""
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self.starts[idx] = start
                self._stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, return_value)
            return return_value
        return traced

    def counting(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- observers -------------------------------------------------------

    def _update_path(self, idx, args, kwargs, outcome):
        model = args[3] if len(args) > 3 else kwargs["model"]
        self.tags[idx] = model.name

    def _repair_fired(self, idx, args, kwargs, out):
        p = np.asarray(args[0] if args else kwargs["p"], dtype=float)
        self.counts["ukf.repair_pd.calls"] += 1
        if not np.array_equal(out, 0.5 * (p + p.T)):
            self.counts["ukf.repair_pd.fired"] += 1

    def _cap_fired(self, idx, args, kwargs, out):
        p = np.asarray(args[0] if args else kwargs["p"], dtype=float)
        if not np.array_equal(out, p):
            self.counts["ukf.cap_omega.fired"] += 1

    def _replay_outcome(self, idx, args, kwargs, outcome):
        if outcome.status == "applied":
            self.counts["retro.replays"] += 1
            self.counts["retro.steps"] += outcome.steps_replayed
        elif outcome.status == "dropped_old":
            self.counts["retro.dropped_old"] += 1

    # -- installation ----------------------------------------------------

    def _patches(self):
        ring = retrodiction.StateSnapshotRing
        state = core.FilterState
        from_vector = state.__dict__["from_vector"].__func__
        return [
            (pipeline, "ukf_predict", self.wrap("ukf.predict",
                                                pipeline.ukf_predict)),
            (pipeline, "ukf_update", self.wrap("ukf.update",
                                               pipeline.ukf_update,
                                               self._update_path)),
            (ukf, "generate_sigma_points",
             self.wrap("ukf.sigma", ukf.generate_sigma_points)),
            (ukf, "repair_pd", self.wrap("ukf.repair_pd", ukf.repair_pd,
                                         self._repair_fired)),
            (ukf, "cap_omega_variance",
             self.wrap("ukf.cap_omega", ukf.cap_omega_variance,
                       self._cap_fired)),
            (ukf, "propagate_states",
             self.wrap("process.propagate", ukf.propagate_states)),
            (ukf, "process_noise_matrix",
             self.wrap("process.noise", ukf.process_noise_matrix)),
            (ring, "apply_delayed", self.wrap("retro.replay",
                                              ring.apply_delayed,
                                              self._replay_outcome)),
            (ring, "record", self.wrap("retro.record", ring.record)),
            (adaptive.AdaptiveEstimator, "observe",
             self.wrap("adaptive.observe",
                       adaptive.AdaptiveEstimator.observe)),
            (measurements, "gps_fix_to_measurement",
             self.wrap("measurements.gps_fix",
                       measurements.gps_fix_to_measurement)),
            (state, "as_vector", self.counting("core.as_vector",
                                               state.as_vector)),
            (state, "from_vector", classmethod(
                self.counting("core.from_vector", from_vector))),
            (np.linalg, "cholesky", self.counting("linalg.cholesky",
                                                  np.linalg.cholesky)),
        ]

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def spans(self, scale=None) -> dict[str, dict[str, np.ndarray]]:
        """Per span name: ``dur`` and ``self`` seconds, in call order.

        ``scale``, one factor per ``pipeline.ingest`` span in call order,
        multiplies every span nested in that call (a span is created
        after its parent, so one forward sweep finds each span's root)."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=int)
        if scale is not None:
            factor = np.ones(len(dur))
            ingest = [i for i, name in enumerate(self.names)
                      if name == "pipeline.ingest" and parents[i] < 0]
            factor[ingest] = scale
            for i, parent in enumerate(self.parents):
                if parent >= 0:
                    factor[i] = factor[parent]
            dur = dur * factor
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        index = defaultdict(list)
        for i, name in enumerate(self.names):
            index[name].append(i)
        return {name: {"dur": dur[idx], "self": self_time[idx],
                       "idx": np.asarray(idx)}
                for name, idx in index.items()}

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": self.starts[i],
                                     "end": self.ends[i],
                                     "parent": self.parents[i],
                                     "tag": self.tags.get(i)}) + "\n")
