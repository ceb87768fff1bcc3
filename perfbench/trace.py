"""Traced-run harness: times the calls into each layer from the outside.

Wrappers are installed on the public functions of every layer, at each place
the name is looked up (module attributes that hold the function, and class
attributes for methods). Each wrapped call is one frame on a stack; a frame's
self time is its duration minus the time its wrapped callees took, so a
layer's self time excludes the layers it calls. Calls made per packet
(``inject``, ``try_emit``, ``ObservationFilter.matches``, target generation,
permutation steps) are aggregated into a count and summed time and are not
recorded one by one; the campaign, CLI subcommand, burst, ``execute`` and
``wait`` calls are also kept as spans (name, start, end, parent) and written
out at the end.

Every wrapper costs a few hundred nanoseconds, and that cost lands in the
self time of the caller's frame: traced self times include wrapper overhead.
The boundary meter (``meter.py``) is installed first in every run, so the
tracer's ``try_emit`` wrapper sits on top of the meter's limiter counter.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from icmpscope import cli, discovery, fileio, isav, ratelimit, reach, transport
from icmpscope.simnet import config, scenarios
from icmpscope.simnet.limiter import LimiterBank
from icmpscope.simnet.world import SimWorld
from perfbench.meter import LIMITER_KINDS

CLI_SUBCOMMANDS = ("simulate", "discover", "isav", "reach", "rl-classify", "report")
ENGINE_FRAMES = ("ratelimit.measure_rcv", "reach.protocol", "reach.campaign", "isav.campaign",
                 "discovery.campaign", "discovery.generate_targets")


def _rebind(orig, wrapper) -> None:
    """Point every icmpscope module attribute that holds ``orig`` at ``wrapper``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "icmpscope" or name.startswith("icmpscope.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        self.counts: Counter = Counter()
        self.limiter: dict[type, list[int]] = {k: [0, 0, 0] for k in LIMITER_KINDS}
        self.spans: list[tuple[int, int, str, int, int]] = []  # (id, parent, name, t0, t1)
        self._stack: list[list[int]] = []  # frames: [child_ns, span_id]
        self._active: Counter = Counter()
        self._next_span = 0

    # -- wrapper factories ---------------------------------------------------

    def _stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0])

    def frame(self, name: str, fn, *, span: bool = False, outermost: bool = False, after=None):
        """Wrapper that opens a frame, so wrapped callees count as children.

        ``outermost`` folds nested calls of the same name into the outer call,
        making the recorded time inclusive (file I/O helpers calling each
        other, builders calling builders). ``after(args, result)`` records
        counts once the call has returned.
        """
        stack, active, clock = self._stack, self._active, time.perf_counter_ns
        stat = self._stat(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and active[name]:
                return fn(*args, **kwargs)
            frame = [0, -1]
            parent = -1
            if span:
                frame[1] = tracer._next_span
                tracer._next_span += 1
                for f in reversed(stack):
                    if f[1] >= 0:
                        parent = f[1]
                        break
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[name] -= 1
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    tracer.spans.append((frame[1], parent, name, t0, t1))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Cheaper wrapper for per-packet calls that reach no wrapped callee."""
        stack, clock = self._stack, time.perf_counter_ns
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt
            if stack:
                stack[-1][0] += dt
            return result

        return wrapper

    def generator(self, name: str, fn, size=lambda item: 1, *, outermost: bool = False):
        """Wrapper for a generator function: times every step of the iteration.

        The steps run whenever the consumer asks for the next item, so their
        time is charged to whichever frame is consuming at that moment.
        """
        stack, active, clock = self._stack, self._active, time.perf_counter_ns
        stat = self._stat(name)
        counts = self.counts

        def steps(it):
            while True:
                frame = [0, -1]
                stack.append(frame)
                active[name] += 1
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    active[name] -= 1
                    stack.pop()
                    stat[1] += dt
                    stat[2] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                counts[name + ".values"] += size(item)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and active[name]:
                return fn(*args, **kwargs)
            stat[0] += 1
            return steps(fn(*args, **kwargs))

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        self._install_world()
        self._install_transport()
        self._install_engines()
        self._install_setup_and_io()

    def _install_world(self) -> None:
        counts = self.counts

        def drained(_args, result):
            counts["world.observations"] += len(result)

        SimWorld.inject = self.leaf("world.inject", SimWorld.inject)
        SimWorld.run_until = self.frame("world.run_until", SimWorld.run_until)
        SimWorld.drain_observations = self.frame(
            "world.drain", SimWorld.drain_observations, after=drained
        )

        orig = LimiterBank.try_emit
        stack, clock, per_kind = self._stack, time.perf_counter_ns, self.limiter

        def try_emit(bank, kind, src, now):
            t0 = clock()
            granted = orig(bank, kind, src, now)
            dt = clock() - t0
            s = per_kind[type(bank.spec)]
            s[0] += 1
            s[1] += dt
            s[2] += granted
            if stack:
                stack[-1][0] += dt
            return granted

        LimiterBank.try_emit = try_emit

    def _install_transport(self) -> None:
        counts = self.counts

        def waited(args, _result):
            counts["transport.wait.sim_ms"] += args[1]

        def executed(_args, result):
            counts["transport.execute.returned"] += len(result)

        cls = transport.SimTransport
        cls.execute = self.frame("transport.execute", cls.execute, span=True, after=executed)
        cls.wait = self.frame("transport.wait", cls.wait, span=True, after=waited)
        _rebind(transport._check_rate_cap, self.leaf("transport.rate_cap", transport._check_rate_cap))
        transport.SendPlan.__post_init__ = self.leaf(
            "transport.sendplan", transport.SendPlan.__post_init__
        )
        transport.ObservationFilter.matches = self.leaf(
            "transport.filter", transport.ObservationFilter.matches
        )

    def _install_engines(self) -> None:
        counts = self.counts

        def discovered(_args, result):
            counts["discovery.pairs"] += sum(len(v) for v in result.pairs.values())
            counts["discovery.probes"] += sum(st.sent for st in result.states.values())

        wraps = [
            (ratelimit.measure_rcv, self.frame("ratelimit.measure_rcv", ratelimit.measure_rcv, span=True)),
            (reach.run_reach_protocol, self.frame("reach.protocol", reach.run_reach_protocol, span=True)),
            (reach.run_reach_campaign, self.frame("reach.campaign", reach.run_reach_campaign, span=True)),
            (isav.run_isav_campaign, self.frame("isav.campaign", isav.run_isav_campaign, span=True)),
            (discovery.run_discovery,
             self.frame("discovery.campaign", discovery.run_discovery, span=True, after=discovered)),
            (discovery.generate_targets, self.leaf("discovery.generate_targets", discovery.generate_targets)),
            (discovery.cyclic_permutation,
             self.generator("discovery.permutation", discovery.cyclic_permutation)),
            (discovery.cyclic_permutation_blocks,
             self.generator("discovery.permutation", discovery.cyclic_permutation_blocks,
                            size=lambda block: int(block.size))),
        ]
        for orig, wrapper in wraps:
            _rebind(orig, wrapper)

        orig_main = cli.main
        per_command = {sub: self.frame(f"cli.{sub}", orig_main, span=True) for sub in CLI_SUBCOMMANDS}

        def main(argv=None):
            timed = per_command.get(argv[0]) if argv else None
            return timed(argv) if timed is not None else orig_main(argv)

        _rebind(orig_main, main)

    def _install_setup_and_io(self) -> None:
        counts = self.counts

        def count_file(args, _result):
            data = Path(args[0]).read_bytes()
            counts["fileio.bytes"] += len(data)
            counts["fileio.records"] += data.count(b"\n")

        for attr, fn in list(vars(fileio).items()):
            if not inspect.isfunction(fn) or fn.__module__ != fileio.__name__:
                continue
            if attr.startswith("read_"):
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._reading_generator(fn)
                else:
                    wrapper = self.frame("fileio.read", fn, outermost=True, after=count_file)
            elif attr.startswith("write_"):
                wrapper = self.frame("fileio.write", fn, outermost=True, after=count_file)
            elif attr.startswith("append_"):
                wrapper = self._appending(fn)
            else:
                continue
            _rebind(fn, wrapper)

        sim_config = config.SimConfig
        sim_config.validate = self.frame("config.validate", sim_config.validate, outermost=True)
        sim_config.save = self.frame("config.save", sim_config.save)
        sim_config.load = classmethod(self.frame("config.load", sim_config.load.__func__))
        for attr, fn in list(vars(scenarios).items()):
            if attr.startswith("build_") and inspect.isfunction(fn):
                _rebind(fn, self.frame("scenarios.build", fn, outermost=True))

    def _reading_generator(self, fn):
        counts = self.counts
        timed = self.generator("fileio.read", fn, outermost=True)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            if not self._active["fileio.read"]:
                counts["fileio.bytes"] += os.path.getsize(path)
            return timed(path, *args, **kwargs)

        return wrapper

    def _appending(self, fn):
        counts = self.counts
        timed = self.frame("fileio.write", fn, outermost=True)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            before = os.path.getsize(path) if os.path.exists(path) else 0
            result = timed(path, *args, **kwargs)
            counts["fileio.bytes"] += os.path.getsize(path) - before
            counts["fileio.records"] += 1
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1 in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")

    def limiter_counts(self) -> dict[str, int]:
        return {LIMITER_KINDS[k]: v[0] for k, v in self.limiter.items()}

    def metrics(self, totals: dict) -> dict[str, float]:
        """Per-layer metric values, named as in BENCHMARK.json."""
        def calls(name):
            return self.stats.get(name, [0, 0, 0])[0]

        def total_s(name):
            return self.stats.get(name, [0, 0, 0])[1] / 1e9

        def self_s(name):
            return self.stats.get(name, [0, 0, 0])[2] / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        m: dict[str, float] = {
            "world.inject.calls": calls("world.inject"),
            "world.inject.self_s": self_s("world.inject"),
            "world.run_until.calls": calls("world.run_until"),
            "world.run_until.self_s": self_s("world.run_until"),
            "world.packets": totals["world_packets"],
            "world.events": totals["world_events"],
            "world.delivery_ratio": ratio(totals["world_events"], totals["world_packets"]),
            "world.observations": c["world.observations"],
        }
        grants = attempts = 0
        for kind, (n, ns, granted) in self.limiter.items():
            label = LIMITER_KINDS[kind]
            m[f"limiter.{label}.calls"] = n
            m[f"limiter.{label}.ns_per_call"] = ratio(ns, n)
            grants += granted
            attempts += n
        m["limiter.grant_ratio"] = ratio(grants, attempts)
        m.update({
            "transport.execute.calls": calls("transport.execute"),
            "transport.execute.self_s": self_s("transport.execute"),
            "transport.execute.packets_per_call": ratio(totals["probes_sent"], calls("transport.execute")),
            "transport.rate_cap.s": total_s("transport.rate_cap"),
            "transport.sendplan.s": total_s("transport.sendplan"),
            "transport.filter.calls": calls("transport.filter"),
            "transport.filter.s": total_s("transport.filter"),
            "transport.filter.pass_ratio": ratio(c["transport.execute.returned"], c["world.observations"]),
            "transport.wait.calls": calls("transport.wait"),
            "transport.wait.self_s": self_s("transport.wait"),
            "transport.wait.sim_s": c["transport.wait.sim_ms"] / 1000.0,
            "ratelimit.measure_rcv.calls": calls("ratelimit.measure_rcv"),
            "ratelimit.measure_rcv.self_s": self_s("ratelimit.measure_rcv"),
            "reach.protocol.calls": calls("reach.protocol"),
            "reach.protocol.self_s": self_s("reach.protocol"),
            "reach.campaign.self_s": self_s("reach.campaign"),
            "isav.campaign.self_s": self_s("isav.campaign"),
            "discovery.campaign.self_s": self_s("discovery.campaign"),
            "discovery.generate_targets.calls": calls("discovery.generate_targets"),
            "discovery.generate_targets.self_s": self_s("discovery.generate_targets"),
            "discovery.permutation.values_per_s": ratio(
                c["discovery.permutation.values"], total_s("discovery.permutation")
            ),
            "discovery.pairs_per_probe": ratio(c["discovery.pairs"], c["discovery.probes"]),
            "fileio.read.s": total_s("fileio.read"),
            "fileio.write.s": total_s("fileio.write"),
            "fileio.records": c["fileio.records"] + c["fileio.read.values"],
            "fileio.bytes": c["fileio.bytes"],
            "config.validate.s": total_s("config.validate"),
            "config.save.s": total_s("config.save"),
            "config.load.s": total_s("config.load"),
            "scenarios.build.s": total_s("scenarios.build"),
        })
        for sub in CLI_SUBCOMMANDS:
            m[f"cli.{sub}.s"] = total_s(f"cli.{sub}")
        m["engine.self_s"] = sum(self_s(name) for name in ENGINE_FRAMES)
        return m
