"""The random-mix programs: a seeded generator and their shadow-API twins.

Each program is a main thread that spawns two or three straight-line
workers and joins them. Workers read and write cells, post and wait on one
counting semaphore, and may wrap one contiguous segment in a mutex, taken
with ``lock`` or with ``trylock`` (whose ``unlock`` then runs only when the
try succeeded). A semaphore wait can therefore sit inside one thread's
mutex segment while the matching post sits inside another thread's segment
of the same mutex, which is the shape of a known missed behaviour of the
reduction; such draws are kept, never filtered out.
"""

from __future__ import annotations

import random

from reference import MixProgram, Op

INTERLEAVING_CAP = 300


def random_program(rng: random.Random) -> MixProgram:
    """Draw one program, resampling until its interleaving count is under the cap."""
    while True:
        n_workers = rng.randint(2, 3)
        n_cells = rng.randint(1, 3)
        n_mutexes = rng.randint(1, 2)
        sem_initial = rng.choice((0, 0, 1))
        next_value = 1
        workers: list[tuple[Op, ...]] = []
        for _ in range(n_workers):
            ops: list[Op] = []
            for _ in range(rng.randint(1, 4)):
                draw = rng.random()
                if draw < 0.2:
                    ops.append(Op(rng.choice(("post", "wait")), 0))
                elif draw < 0.6:
                    ops.append(Op("read", rng.randrange(n_cells)))
                else:
                    ops.append(Op("write", rng.randrange(n_cells), next_value))
                    next_value += 1
            if rng.random() < 0.6:
                lo = rng.randrange(len(ops))
                hi = rng.randrange(lo, len(ops)) + 1
                m = rng.randrange(n_mutexes)
                take, give = ("trylock", "tryunlock") if rng.random() < 0.3 else ("lock", "unlock")
                ops = ops[:lo] + [Op(take, m)] + ops[lo:hi] + [Op(give, m)] + ops[hi:]
            workers.append(tuple(ops))
        program = MixProgram(
            workers=tuple(workers),
            n_cells=n_cells,
            n_mutexes=n_mutexes,
            sem_initial=sem_initial,
        )
        if program.interleaving_estimate() <= INTERLEAVING_CAP:
            return program


def draw_programs(seed: int, count: int) -> list[MixProgram]:
    rng = random.Random(seed)
    return [random_program(rng) for _ in range(count)]


def to_program(program: MixProgram, name: str):
    """The shadow-API twin: cells, then mutexes, then the semaphore; spawn, join."""
    from shadowcheck import Api, ProgramHandle

    def entry(api: Api) -> None:
        cells = [api.register_shared(0) for _ in range(program.n_cells)]
        mutexes = [api.new_mutex() for _ in range(program.n_mutexes)]
        sem = api.new_semaphore(program.sem_initial)

        def make_worker(ops: tuple[Op, ...]):
            def body(a: Api) -> None:
                got = False
                for op in ops:
                    kind = op.kind
                    if kind == "read":
                        a.read(cells[op.target])
                    elif kind == "write":
                        a.write(cells[op.target], op.value)
                    elif kind == "lock":
                        a.mutex_lock(mutexes[op.target])
                    elif kind == "unlock":
                        a.mutex_unlock(mutexes[op.target])
                    elif kind == "trylock":
                        got = a.mutex_trylock(mutexes[op.target])
                    elif kind == "tryunlock":
                        if got:
                            a.mutex_unlock(mutexes[op.target])
                    elif kind == "post":
                        a.sem_post(sem)
                    else:
                        a.sem_wait(sem)

            return body

        tids = [api.spawn_thread(make_worker(ops)) for ops in program.workers]
        for tid in tids:
            api.join(tid)

    return ProgramHandle(name=name, entry=entry)
