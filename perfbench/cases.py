"""The four benchmark workloads: inputs, engine, and one tick each.

Every workload is a closed loop with one client: the benchmark generates
the whole input (datasets plus every tick's update batch) from the seed
before anything is timed, then sends tick ``k``'s batch only after the
answer of tick ``k - 1`` has returned.  Ticks run over a fixed window
``t = 1 .. ticks`` of simulated time, so every run of a workload times
the same part of the update stream (whose per-tick rate ramps up over
the first ``T_M`` ticks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig
from repro.workloads import VectorUpdateStream, make_workload_arrays

#: The paper's Table I defaults.
T_M = 60.0
MAX_SPEED = 2.0


@dataclass(frozen=True)
class Case:
    name: str
    engine: str  # "columnar" | "sharded" | "object"
    algorithm: str
    n: int  # objects per side
    distribution: str
    object_size_pct: float
    ticks: int  # length of the timed tick window
    deltas: bool = False
    shards: int = 0
    workers: int = 0
    #: How many times one round constructs the engine (median reported)
    #: and how many of those constructions also run the initial join.
    setup_reps: int = 1
    joins: int = 1
    #: Factor on every velocity's y component.  Each shard picks its
    #: sweep dimension by the smaller summed speed, ignoring that its
    #: stripe is narrow along the partition axis.  With isotropic motion
    #: that pick is a coin flip per shard and seed (about 0.7M or 1.3M
    #: candidates per shard in the initial join), so the initial join is
    #: bimodal across seeds.  A 10 % bias makes every seed pick the
    #: narrow axis, the slow side, so the cost shows on every run.
    vy_scale: float = 1.0


CASES = {
    case.name: case
    for case in (
        Case(
            "scale-tc",
            engine="columnar",
            algorithm="tc",
            n=20_000,
            distribution="uniform",
            object_size_pct=0.1,
            ticks=24,
            setup_reps=6,
            joins=2,
        ),
        Case(
            "dense-mtb-deltas",
            engine="columnar",
            algorithm="mtb",
            n=1_500,
            distribution="gaussian",
            object_size_pct=1.0,
            ticks=50,
            deltas=True,
            setup_reps=15,
            joins=2,
        ),
        Case(
            "sharded-tc",
            engine="sharded",
            algorithm="tc",
            n=10_000,
            distribution="uniform",
            object_size_pct=0.1,
            ticks=32,
            shards=2,
            workers=2,
            setup_reps=5,
            joins=5,
            vy_scale=0.9,
        ),
        Case(
            "paper-mtb-object",
            engine="object",
            algorithm="mtb",
            n=1_000,
            distribution="uniform",
            object_size_pct=0.1,
            ticks=45,
        ),
    )
}


@dataclass
class Inputs:
    """Everything a round needs, generated before timing starts."""

    arrays: object  # ArrayScenario
    #: ``(t, upd_a, upd_b, payload)``: column batches, plus the same
    #: batch as objects for the object-path engines.
    batches: List[Tuple[float, object, object, Optional[list]]]
    set_a: Optional[list] = None
    set_b: Optional[list] = None


def space_for(n: int) -> float:
    """Constant-density space side: 1000 at n=1k, growing with sqrt(n)."""
    return 1000.0 * math.sqrt(n / 1000.0)


def generate(case: Case, seed: int) -> Inputs:
    arrays = make_workload_arrays(
        case.n,
        case.distribution,
        space_size=space_for(case.n),
        max_speed=MAX_SPEED,
        object_size_pct=case.object_size_pct,
        t_m=T_M,
        seed=seed,
    )
    bias = np.array([[1.0], [case.vy_scale]])
    arrays.vel_a *= bias
    arrays.vel_b *= bias
    stream = VectorUpdateStream(arrays, seed=seed + 1)
    batches = []
    for step in range(1, case.ticks + 1):
        t = float(step)
        upd_a, upd_b = stream.updates_at(t)
        for upd in (upd_a, upd_b):
            upd.vlo = upd.vhi = upd.vlo * bias
        payload = upd_a.objects() + upd_b.objects() if case.engine == "object" else None
        batches.append((t, upd_a, upd_b, payload))
    inputs = Inputs(arrays, batches)
    if case.engine != "columnar":
        scenario = arrays.to_scenario()
        inputs.set_a, inputs.set_b = scenario.set_a, scenario.set_b
    return inputs


def config(case: Case) -> JoinConfig:
    kwargs = {"t_m": T_M, "deltas": case.deltas}
    if case.engine == "sharded":
        kwargs["shard_engine"] = "columnar"
    return JoinConfig(**kwargs)


def build(case: Case, inputs: Inputs):
    """Construct the engine (the timed set-up)."""
    cfg = config(case)
    if case.engine == "columnar":
        return ColumnarJoinEngine(
            inputs.arrays.columns_a(),
            inputs.arrays.columns_b(),
            algorithm=case.algorithm,
            config=cfg,
        )
    if case.engine == "sharded":
        from repro.par import ShardedJoinEngine

        return ShardedJoinEngine(
            inputs.set_a,
            inputs.set_b,
            algorithm=case.algorithm,
            config=cfg,
            shards=case.shards,
            workers=case.workers,
        )
    return ContinuousJoinEngine(inputs.set_a, inputs.set_b, case.algorithm, cfg)


def close(engine) -> None:
    closer = getattr(engine, "close", None)
    if closer is not None:
        closer()


def initial_join(case: Case, engine):
    """Run the initial join; returns ``(answer, delta events or None)``."""
    engine.run_initial_join()
    t0 = engine.now
    answer = engine.result_at(t0)
    events = engine.deltas(t0) if case.deltas else None
    return answer, events


def tick(case: Case, engine, batch):
    """One closed-loop tick; returns ``(answer, delta events or None)``."""
    t, upd_a, upd_b, payload = batch
    engine.tick(t)
    if payload is not None:
        engine.apply_updates(payload)
    else:
        engine.apply_update_columns(upd_a, upd_b)
    if case.deltas:
        engine.prune_expired()
    answer = engine.result_at(t)
    events = engine.deltas(t) if case.deltas else None
    return answer, events
