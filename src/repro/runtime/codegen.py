"""The batched engine's thread-block body, generated per shape.

Every thread block of a batched simulation runs as one slim generator,
resumed with the current virtual time (``now = yield ...``) at each
occurrence's *check point* (instruction overhead after the previous
occurrence's boundary); every per-step constant comes precompiled from
the block's :class:`~repro.runtime.simulator._TbProgram`. An unblocked
occurrence costs exactly one resumption: its waits, resource
reservations, and timing arithmetic all run inline at the check point.

Inter-block state uses *lazy publication*: at its check point a
producer eagerly writes the virtual time each fact becomes true — the
message's first-byte arrival (``conn.arrival_first``), the slot's drain
time (``conn.free_times``), the fence boundary (``sem.times``) — and
each occurrence's wait chain is evaluated at the *previous*
occurrence's check point, lifting the next resume time through the
published times (pure reads of final, monotone values). The generator
then resumes once, at exactly the virtual time the reference loop's
last wait would have resolved, and runs its resource reservations
there in heap order. Only a fact nobody has published yet blocks; the
producer re-queues such already-blocked consumers straight at the
fact's fire time with a ``(fire_t, signal)`` action (every signal has a
single publishing thread block). State exclusive to the thread block —
its copy engine's FCFS horizon, the in-order delivery clamp, the
issued/consumed counters — lives in locals, with the counters the
post-run balance check reads flushed on the final occurrence.

A program's *shape* — the per-record flag vector plus the dependence
and wire-path arities — is extracted once, and a generator function is
generated for it (plain Python source, ``compile`` + ``exec``) with:

* every structural branch resolved at generation time,
* the per-record loop unrolled, records' tile-invariant constants
  (service durations, receive sequence, dependence targets, path
  resources) bound to locals in the preamble,
* a static last-record / last-tile test for the final occurrence,
* wire-path reservation hops unrolled.

Shapes repeat heavily — symmetric collectives compile hundreds of
thread blocks into a handful of shapes — so generated functions are
cached process-wide, keyed by shape. Every block gets a generated
task, however long; the source and its compile time grow linearly with
the record count. The generated code performs the same float
operations in the same order at the same virtual times as the
reference engine
(:meth:`~repro.runtime.simulator.IrSimulator._tb_process`), so timing
results stay bitwise-identical; the parity suite pins this.
"""

from __future__ import annotations

from typing import Dict, List

# Generated functions keyed by program shape. Safe to share globally:
# the source depends only on the shape, never on runtime objects.
_CACHE: Dict[tuple, object] = {}


def shape_key(prog) -> tuple:
    """Everything the generated source depends on, and nothing else."""
    recs_shape = tuple(
        (len(rec[0]),          # dependence arity
         rec[1],               # receives
         rec[2],               # sends
         rec[3],               # local compute
         rec[4],               # fused send
         rec[5],               # direct receive
         rec[7],               # has_dep (fence after release)
         rec[10] is None,      # zero-byte cross-node send poison
         0 if rec[10] is None else len(rec[10]))  # wire-path arity
        for rec in prog.recs
    )
    return (prog.watched, prog.in_conn is not None,
            prog.out_conn is not None, prog.cross, recs_shape)


def task_factory(prog):
    """A generator factory specialized to ``prog``'s shape."""
    key = shape_key(prog)
    fn = _CACHE.get(key)
    if fn is None:
        src = task_source(key)
        namespace: dict = {}
        exec(compile(src, f"<simtask{len(_CACHE)}>", "exec"), namespace)
        fn = namespace["_task"]
        _CACHE[key] = fn
    return fn


def task_source(key: tuple) -> str:
    """Emit the specialized generator source for a shape key."""
    watched, has_in, has_out, cross, recs_shape = key
    out: List[str] = []
    emit = out.append

    any_recv = any(r[1] for r in recs_shape)
    any_send = any(r[2] for r in recs_shape)
    # The copy engine horizon is touched by non-direct receives, local
    # compute, and non-fused sends.
    any_engine = any((r[1] and not r[5]) or r[3] or (r[2] and not r[4])
                     for r in recs_shape)

    emit("def _task(prog, tiles, oh, sem_oh):")
    emit("    recs = prog.recs")
    if watched:
        emit("    sem_times = prog.sem.times")
        emit("    sem_signal = prog.sem_signal")
    if any_send:
        emit("    alpha = prog.alpha")
    if has_in:
        emit("    in_conn = prog.in_conn")
        emit("    in_last = in_conn.arrival_last")
        emit("    in_first = in_conn.arrival_first")
        emit("    in_len = len(in_first)")
        emit("    in_free = in_conn.free_times")
        emit("    in_spt = in_conn.sends_per_tile")
        emit("    arrival_signal = in_conn.arrival_signal")
        emit("    in_slot_signal = in_conn.slot_signal")
        emit("    consumed = 0")
    if has_out:
        emit("    out_conn = prog.out_conn")
        emit("    slots = out_conn.slots")
        emit("    out_last = out_conn.arrival_last")
        emit("    out_first = out_conn.arrival_first")
        emit("    out_free = out_conn.free_times")
        emit("    out_arrival_signal = out_conn.arrival_signal")
        emit("    slot_signal = out_conn.slot_signal")
        emit("    issued = 0")
    if any_send:
        emit("    prev_first = 0.0")
        emit("    prev_last = 0.0")
    if any_engine:
        emit("    engine_nf = 0.0")

    # Per-record constants, bound once.
    for i, (ndeps, receives, sends, local, fused, direct_recv,
            has_dep, poisoned, npath) in enumerate(recs_shape):
        needed = (ndeps or receives or sends or local)
        if needed:
            emit(f"    _r = recs[{i}]")
        if ndeps:
            emit("    _d = _r[0]")
            for j in range(ndeps):
                emit(f"    dT{i}_{j} = _d[{j}][0]")
                emit(f"    dS{i}_{j} = _d[{j}][1]")
                emit(f"    dL{i}_{j} = _d[{j}][2]")
                emit(f"    dB{i}_{j} = _d[{j}][3]")
        if receives:
            emit(f"    rs{i} = _r[6]")
        if (receives and not direct_recv) or local:
            emit(f"    cd{i} = _r[8]")
        if sends and not fused and not poisoned:
            emit(f"    pd{i} = _r[9]")
        if sends and not poisoned and npath:
            emit("    _p = _r[10]")
            for k in range(npath):
                emit(f"    pR{i}_{k} = _p[{k}][0]")
                emit(f"    pD{i}_{k} = _p[{k}][1]")

    emit("    last_tile = tiles - 1")
    emit("    pending = None")
    emit("    now = yield")
    emit("    wake = now")
    emit("    for tile in range(tiles):")
    if has_in and any_recv:
        emit("        recv_base = tile * in_spt")

    n_recs = len(recs_shape)
    for i, (ndeps, receives, sends, local, fused, direct_recv,
            has_dep, poisoned, npath) in enumerate(recs_shape):
        ind = "        "
        act_sources = ((sends and not poisoned) or receives or watched)

        # -- wait chain, evaluated at the previous check point.
        for j in range(ndeps):
            emit(f"{ind}target = tile * dL{i}_{j} + dB{i}_{j}")
            emit(f"{ind}while len(dT{i}_{j}) < target:")
            emit(f"{ind}    if pending is not None:")
            emit(f"{ind}        now = yield (pending, wake "
                 f"if wake > now else dS{i}_{j})")
            emit(f"{ind}        pending = None")
            emit(f"{ind}    elif wake > now:")
            emit(f"{ind}        now = yield wake")
            emit(f"{ind}    else:")
            emit(f"{ind}        now = yield dS{i}_{j}")
            emit(f"{ind}    if now > wake:")
            emit(f"{ind}        wake = now")
            emit(f"{ind}t = dT{i}_{j}[target - 1]")
            emit(f"{ind}if t > wake:")
            emit(f"{ind}    wake = t")
        if receives:
            emit(f"{ind}rt = recv_base + rs{i}")
            emit(f"{ind}while True:")
            emit(f"{ind}    first = in_first[rt] if rt < in_len else None")
            emit(f"{ind}    if first is not None:")
            emit(f"{ind}        if first > wake:")
            emit(f"{ind}            wake = first")
            emit(f"{ind}        break")
            emit(f"{ind}    if pending is not None:")
            emit(f"{ind}        now = yield (pending, wake "
                 f"if wake > now else arrival_signal)")
            emit(f"{ind}        pending = None")
            emit(f"{ind}    elif wake > now:")
            emit(f"{ind}        now = yield wake")
            emit(f"{ind}    else:")
            emit(f"{ind}        now = yield arrival_signal")
            emit(f"{ind}    if now > wake:")
            emit(f"{ind}        wake = now")
            emit(f"{ind}msg_last = in_last[rt]")
        if sends:
            emit(f"{ind}send_seq = issued")
            emit(f"{ind}if send_seq >= slots:")
            emit(f"{ind}    freed = send_seq - slots")
            emit(f"{ind}    while True:")
            emit(f"{ind}        ft = out_free[freed]")
            emit(f"{ind}        if ft is not None:")
            emit(f"{ind}            if ft > wake:")
            emit(f"{ind}                wake = ft")
            emit(f"{ind}            break")
            emit(f"{ind}        if pending is not None:")
            emit(f"{ind}            now = yield (pending, wake "
                 f"if wake > now else slot_signal)")
            emit(f"{ind}            pending = None")
            emit(f"{ind}        elif wake > now:")
            emit(f"{ind}            now = yield wake")
            emit(f"{ind}        else:")
            emit(f"{ind}            now = yield slot_signal")
            emit(f"{ind}        if now > wake:")
            emit(f"{ind}            wake = now")
            emit(f"{ind}issued = send_seq + 1")

        # -- one resumption at the resolved wait time.
        emit(f"{ind}if pending is not None:")
        emit(f"{ind}    now = yield (pending, wake)")
        emit(f"{ind}    pending = None")
        emit(f"{ind}elif wake > now:")
        emit(f"{ind}    now = yield wake")
        emit(f"{ind}start = now")
        if receives:
            if direct_recv:
                emit(f"{ind}data_ready = start "
                     f"if start >= msg_last else msg_last")
            else:
                emit(f"{ind}rstart = start "
                     f"if start >= engine_nf else engine_nf")
                emit(f"{ind}finish = rstart + cd{i}")
                emit(f"{ind}engine_nf = finish")
                emit(f"{ind}data_ready = finish "
                     f"if finish >= msg_last else msg_last")
        elif local:
            emit(f"{ind}rstart = start "
                 f"if start >= engine_nf else engine_nf")
            emit(f"{ind}data_ready = rstart + cd{i}")
            emit(f"{ind}engine_nf = data_ready")
        else:
            emit(f"{ind}data_ready = start")

        if sends and poisoned:
            # The reference interpreter divides by the zero basis of a
            # zero-byte cross-node send at this exact point.
            emit(f"{ind}raise ZeroDivisionError"
                 f"('float division by zero')")
            continue
        if act_sources:
            emit(f"{ind}actions = None")
        if sends:
            if fused:
                emit(f"{ind}produce_finish = data_ready")
            else:
                emit(f"{ind}rstart = start "
                     f"if start >= engine_nf else engine_nf")
                emit(f"{ind}produce_finish = rstart + pd{i}")
                emit(f"{ind}engine_nf = produce_finish")
            if npath == 0:
                emit(f"{ind}wire_finish = 0.0")
            for k in range(npath):
                emit(f"{ind}nf = pR{i}_{k}.next_free")
                emit(f"{ind}rstart = start if start >= nf else nf")
                emit(f"{ind}finish = rstart + pD{i}_{k}")
                emit(f"{ind}pR{i}_{k}.next_free = finish")
                emit(f"{ind}pR{i}_{k}.busy_time += pD{i}_{k}")
                if k == 0:
                    emit(f"{ind}wire_finish = finish")
                else:
                    emit(f"{ind}if finish > wire_finish:")
                    emit(f"{ind}    wire_finish = finish")
            emit(f"{ind}first_byte = start + alpha")
            emit(f"{ind}peak = wire_finish "
                 f"if wire_finish >= produce_finish else produce_finish")
            emit(f"{ind}last_byte = peak + alpha")
            emit(f"{ind}if first_byte < prev_first:")
            emit(f"{ind}    first_byte = prev_first")
            emit(f"{ind}if last_byte < prev_last:")
            emit(f"{ind}    last_byte = prev_last")
            emit(f"{ind}if last_byte < first_byte:")
            emit(f"{ind}    last_byte = first_byte")
            emit(f"{ind}prev_first = first_byte")
            emit(f"{ind}prev_last = last_byte")
            if cross:
                emit(f"{ind}release = produce_finish "
                     f"if produce_finish >= data_ready else data_ready")
            else:
                emit(f"{ind}drained = last_byte - alpha")
                emit(f"{ind}release = drained "
                     f"if drained >= data_ready else data_ready")
            emit(f"{ind}out_first[send_seq] = first_byte")
            emit(f"{ind}out_last[send_seq] = last_byte")
            emit(f"{ind}if out_arrival_signal._waiters:")
            emit(f"{ind}    actions = ((first_byte, out_arrival_signal),)")
        else:
            emit(f"{ind}release = data_ready")
        if receives:
            emit(f"{ind}in_free[rt] = data_ready")
            emit(f"{ind}consumed += 1")
            emit(f"{ind}if in_slot_signal._waiters:")
            emit(f"{ind}    wk = (data_ready, in_slot_signal)")
            emit(f"{ind}    actions = "
                 f"(actions + (wk,) if actions else (wk,))")
        if has_dep:
            emit(f"{ind}boundary = release + sem_oh")
        else:
            emit(f"{ind}boundary = release")
        if watched:
            emit(f"{ind}sem_times.append(boundary)")
            emit(f"{ind}if sem_signal._waiters:")
            emit(f"{ind}    wk = (boundary, sem_signal)")
            emit(f"{ind}    actions = "
                 f"(actions + (wk,) if actions else (wk,))")
        if i < n_recs - 1:
            # Only the last record of the last tile can be the final
            # occurrence, so earlier records skip the counter test.
            if act_sources:
                emit(f"{ind}pending = actions")
            emit(f"{ind}wake = boundary + oh")
        else:
            emit(f"{ind}if tile != last_tile:")
            if act_sources:
                emit(f"{ind}    pending = actions")
            emit(f"{ind}    wake = boundary + oh")
            emit(f"{ind}else:")
            if has_in:
                emit(f"{ind}    in_conn.consumed_count = consumed")
            if has_out:
                emit(f"{ind}    out_conn.issued = issued")
            if act_sources:
                emit(f"{ind}    if actions is not None:")
                emit(f"{ind}        yield (actions, boundary)")
                emit(f"{ind}    else:")
                emit(f"{ind}        yield boundary")
            else:
                emit(f"{ind}    yield boundary")
            emit(f"{ind}    return")
    emit("")
    return "\n".join(out)
