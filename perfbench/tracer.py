"""In-memory call tracing of the antijam layers, installed from outside the package.

A hook target is named `<module>.<function>` or `<module>.<Class>.<method>`
relative to `antijam`. Installing a module-level function rebinds every
`antijam` module global that refers to it (the defining module, the package
namespace and each `from .x import f` copy), because callers look the name up
in their own module. A method is replaced on its class.

Each call records a span on a stack. When it ends, its duration is added to
the parent's child time, and the span's self time is its duration minus the
time its children covered. Spans are folded into per-target totals as they
close, so memory stays flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Public functions of each src/antijam layer that the per-layer metrics cover.
TARGETS = (
    "config.load_config",
    "env.RateModel.rates",
    "jammers.jammer_action",
    "learning.epsilon_greedy",
    "learning.collaborative_joint_selection",
    "learning.baseline_action",
    "learning.q_update",
    "learning.MixedStrategy.sample",
    "learning.sla_update",
    "learning.HierarchicalController.begin_slot",
    "learning.HierarchicalController.end_slot",
    "hypergraph.marginal_interference",
    "metrics.network_rate",
    "metrics.normalized_capacity",
    "games.stackelberg_solve",
    "games.enumerate_pure_nash",
    "games.user_utility",
    "games.run_best_response",
    "metrics.ne_bounds",
    "runner.simulate_trial",
    "runner.run_scenario",
    "cli.main",
)

PACKAGE = "antijam"


class Tracer:
    """Per-target span totals: [calls, total seconds, self seconds]."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._installed = []
        self.missing = []

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Hook every target that exists; warn about and skip the rest."""
        # Import every layer first, so each `from .x import f` copy exists
        # before its function is rebound.
        modules = {}
        for target in targets:
            name = target.split(".")[0]
            try:
                modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
            except ImportError:
                pass
        for target in targets:
            module_name, *path = target.split(".")
            try:
                owner = modules[module_name]
                for part in path[:-1]:
                    owner = getattr(owner, part)
                attr = path[-1]
                original = vars(owner)[attr]
            except (AttributeError, KeyError, IndexError, TypeError):
                if target not in self.missing:
                    print(f"warning: trace target {target} not found; "
                          f"its metrics are absent", file=sys.stderr)
                    self.missing.append(target)
                continue
            wrapper = self.wrap(target, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
            else:
                for module in _package_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, name, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def snapshot(self) -> dict:
        """`<target>.{calls,self_s,total_s}` for every hooked target."""
        out = {}
        for name, (calls, total, self_time) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_time
            out[f"{name}.total_s"] = total
        return out


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]
