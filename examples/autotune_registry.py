#!/usr/bin/env python
"""Autotuning schedules and deploying them behind the NCCL-like API.

The paper's programs "took 15 minutes to an hour to write and manually
optimize" — the tuning loop being: try (channels, parallelization,
protocol) combinations, keep the fastest per buffer-size band, and let
the runtime select dynamically with NCCL fallback (section 6). This
example automates the whole loop:

1. autotune the Ring AllReduce schedule space on an 8xA100 node,
2. package the per-size winners as a PlanTable of size ranges,
3. mount it on a Communicator and replay a mixed workload,
4. show the per-algorithm call summary.

Run:  python examples/autotune_registry.py
"""

from repro.algorithms import ring_allreduce
from repro.analysis import Candidate, format_size, plan_table, tune
from repro.nccl import NcclModel
from repro.runtime import Communicator
from repro.topology import ndv4

KiB, MiB = 1024, 1024 * 1024


def builder(channels, instances, protocol):
    return ring_allreduce(8, channels=channels, instances=instances,
                          protocol=protocol)


def main() -> None:
    topology = ndv4(1)
    space = [
        Candidate(1, 2, "LL"),
        Candidate(4, 8, "LL"),
        Candidate(4, 8, "LL128"),
        Candidate(2, 8, "Simple"),
        Candidate(1, 24, "Simple"),
    ]
    sizes = [16 * KiB, 128 * KiB, 1 * MiB, 8 * MiB, 64 * MiB]
    print(f"tuning {len(space)} schedule candidates over "
          f"{len(sizes)} sizes...")
    result = tune(builder, topology, sizes,
                  collective_sizing_chunks=8, space=space)
    print(result.table())
    for candidate, reason in result.skipped:
        print(f"skipped {candidate.label}: {reason}")

    table = plan_table(result)
    print(f"\nplan table: {len(table.rows)} size ranges")
    for min_bytes, max_bytes, plan in table.rows:
        hi = ("inf" if max_bytes == float("inf")
              else format_size(max_bytes + 1))
        print(f"  [{format_size(max(min_bytes, 1)):>6s} .. "
              f"{hi:>6s}]  {plan.label}")

    comm = Communicator(ndv4(1))
    comm.register_table("allreduce", table)
    nccl = NcclModel(ndv4(1))
    print("\nreplaying a mixed workload through the communicator:")
    workload = [16 * KiB, 1 * MiB, 16 * KiB, 64 * MiB, 128 * KiB,
                8 * MiB, 64 * MiB]
    for size in workload:
        ours = comm.all_reduce(size).time_us
        base = nccl.allreduce_time(size).time_us
        print(f"  allreduce {format_size(size):>6s}: {ours:8.1f} us "
              f"(NCCL {base:8.1f} us, {base / ours:4.2f}x)")
    print("\n" + comm.summary_text())


if __name__ == "__main__":
    main()
