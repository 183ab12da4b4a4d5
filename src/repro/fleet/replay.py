"""Sharded replay verification: prove the fleet equals the single service.

The fleet's whole claim is that sharding is *invisible* to the monitoring
verdict: a drift scenario replayed through N shard workers (round-robin,
sequence-stamped, chunks committed in order to the front-end's window)
must produce the same alarms at the same
steps, the same detection latency, and the same windowed fairness trace as
one :class:`~repro.serving.PredictionService` observing the union stream.
:func:`compare_sharded_replay` runs both replays and diffs the full scored
traces — everything in ``ReplayResult.to_dict(include_steps=True)`` except
wall-clock throughput — so the equivalence is asserted bit for bit, not
eyeballed on summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import ValidationError
from repro.simulate.replay import ReplayResult
from repro.simulate.suites import SuiteRunner

#: Timing-dependent keys excluded from the bit-identity comparison.
TIMING_KEYS = ("records_per_second",)


def _comparable(result: ReplayResult) -> Dict[str, object]:
    out = result.to_dict(include_steps=True)
    for key in TIMING_KEYS:
        out.pop(key, None)
    return out


def diff_replay_results(single: ReplayResult, fleet: ReplayResult) -> List[str]:
    """Human-readable differences between two scored replays (empty == equal)."""
    a, b = _comparable(single), _comparable(fleet)
    differences = []
    for key in a:
        if a[key] != b[key]:
            if key == "steps":
                for index, (step_a, step_b) in enumerate(zip(a[key], b[key])):
                    if step_a != step_b:
                        differences.append(
                            f"steps[{index}]: single={step_a!r} fleet={step_b!r}"
                        )
                        break
                if len(a[key]) != len(b[key]):
                    differences.append(
                        f"steps: single has {len(a[key])}, fleet has {len(b[key])}"
                    )
            else:
                differences.append(f"{key}: single={a[key]!r} fleet={b[key]!r}")
    return differences


@dataclass
class ShardedReplayComparison:
    """Outcome of one single-vs-fleet replay equivalence check."""

    label: str
    shards: int
    single: ReplayResult
    fleet: ReplayResult
    differences: List[str] = field(default_factory=list)

    @property
    def matches(self) -> bool:
        return not self.differences

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "shards": self.shards,
            "matches": self.matches,
            "differences": list(self.differences),
            "single": self.single.to_dict(),
            "fleet": self.fleet.to_dict(),
        }


def compare_sharded_replay(
    runner: SuiteRunner,
    scenario,
    deploy,
    *,
    shards: int,
    label: Optional[str] = None,
    n_steps: int = 40,
    batch_size: int = 128,
    seed: int = 0,
) -> ShardedReplayComparison:
    """Replay one scenario twice — single service and N-shard fleet — and diff.

    Both replays consume the same deterministic stream (same scenario, same
    seed), so any difference is the fleet's fault, not the traffic's.
    ``shards`` must be at least 2: a single "shard" is the single service.
    """
    if int(shards) < 2:
        raise ValidationError(f"a sharded replay needs shards >= 2, got {shards}")
    single = runner.replay_scenario(
        scenario, deploy, label=label, n_steps=n_steps, batch_size=batch_size, seed=seed
    )
    fleet = runner.replay_scenario(
        scenario,
        deploy,
        label=label,
        n_steps=n_steps,
        batch_size=batch_size,
        seed=seed,
        shards=shards,
    )
    return ShardedReplayComparison(
        label=label if label is not None else single.scenario,
        shards=int(shards),
        single=single,
        fleet=fleet,
        differences=diff_replay_results(single, fleet),
    )
