"""CPU core / pool / socket models."""

import pytest

from repro.config import BLUEFIELD_ARM, DEFAULT_CACHE, XEON_E5_2620
from repro.errors import ConfigError
from repro.hw.cpu import Core, CorePool, CpuSocket
from repro.sim import Environment, RngRegistry


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def rng():
    return RngRegistry(0).stream("test")


class TestCore:
    def test_calibrated_work_charges_exact_duration(self, env):
        core = Core(env, XEON_E5_2620, 0)

        def proc(env):
            yield from core.run_calibrated(12.5)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 12.5

    def test_compute_scales_with_speed_factor(self, env):
        arm = Core(env, BLUEFIELD_ARM, 0)

        def proc(env):
            yield from arm.run_compute(33.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(33.0 / BLUEFIELD_ARM.speed_factor)

    def test_core_serializes(self, env):
        core = Core(env, XEON_E5_2620, 0)
        ends = []

        def proc(env):
            yield from core.run_calibrated(10)
            ends.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert ends == [10, 20]

    def test_negative_duration_rejected(self, env):
        core = Core(env, XEON_E5_2620, 0)
        env.process(core.run_calibrated(-1))
        with pytest.raises(ConfigError):
            env.run()


class TestCorePool:
    def test_pool_parallelism(self, env):
        pool = CorePool(env, XEON_E5_2620, count=3)
        ends = []

        def proc(env):
            yield from pool.run_calibrated(10)
            ends.append(env.now)

        for _ in range(6):
            env.process(proc(env))
        env.run()
        assert ends == [10, 10, 10, 20, 20, 20]

    def test_pool_requires_core(self, env):
        with pytest.raises(ConfigError):
            CorePool(env, XEON_E5_2620, count=0)

    def test_priority_orders_contended_work(self, env):
        pool = CorePool(env, XEON_E5_2620, count=1)
        order = []

        def work(env, name, priority):
            yield from pool.run_calibrated(5, priority=priority)
            order.append(name)

        def spawner(env):
            env.process(work(env, "hog", 0))
            yield env.timeout(1)
            env.process(work(env, "ingress", 0))
            env.process(work(env, "egress", -1))

        env.process(spawner(env))
        env.run()
        assert order == ["hog", "egress", "ingress"]

    def test_pool_defaults_apply_cache_pressure(self, env, rng):
        from repro.hw.cache import LLCModel

        llc = LLCModel(env, 100, DEFAULT_CACHE, rng)
        llc.occupy(10000)  # an external aggressor overflowing the LLC
        pool = CorePool(env, XEON_E5_2620, count=1, llc=llc)
        pool.default_memory_intensity = 1.0
        pool.default_working_set = 50

        def proc(env):
            yield from pool.run_calibrated(10)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value > 10  # slowed by contention


class TestRunCalibratedThen:
    """The callback twin must reproduce the generator slot for slot."""

    JOBS = [(0.0, 4.0, 0, None, None), (0.0, 3.0, 1, 0.8, 40),
            (1.0, 2.5, -1, None, None), (1.0, 6.0, 0, 0.5, 0),
            (2.0, 1.0, -2, 1.0, 60), (2.5, 3.5, 0, None, None)]

    def _replay(self, callback_api):
        from repro.hw.cache import LLCModel

        env = Environment()
        llc = LLCModel(env, 100, DEFAULT_CACHE,
                       RngRegistry(0).stream("test"))
        llc.occupy(150)
        pool = CorePool(env, XEON_E5_2620, count=2, llc=llc)
        pool.default_memory_intensity = 0.3
        pool.default_working_set = 20
        done = []

        def job(name, cost, priority, mi, ws):
            if callback_api:
                pool.run_calibrated_then(
                    cost, lambda _e: done.append((name, env.now)),
                    priority=priority, memory_intensity=mi, working_set=ws)
            else:
                def proc():
                    yield from pool.run_calibrated(
                        cost, priority=priority, memory_intensity=mi,
                        working_set=ws)
                    done.append((name, env.now))
                env.detached(proc())

        for name, (at, cost, priority, mi, ws) in enumerate(self.JOBS):
            env.timeout(at).callbacks.append(
                lambda _e, a=(name, cost, priority, mi, ws): job(*a))
        env.run()
        gauges = [(g._value, g._area, g._last_change, g._max)
                  for g in (pool._res.utilization, pool._res.queue_depth)]
        return done, gauges, llc.total_working_set, llc._next_token

    def test_matches_generator(self):
        # The generator path spawns one detached task per job (one
        # kick each), so compare observables, not event ids.
        done, gauges, occupied, tokens = self._replay(True)
        assert (done, gauges, occupied, tokens) == self._replay(False)
        assert len(done) == len(self.JOBS)

    def test_negative_duration_rejected(self, env):
        pool = CorePool(env, XEON_E5_2620, count=1)
        with pytest.raises(ConfigError):
            pool.run_calibrated_then(-1.0, lambda _e: None)


class TestCpuSocket:
    def test_socket_has_profile_core_count(self, env, rng):
        socket = CpuSocket(env, XEON_E5_2620, DEFAULT_CACHE, rng)
        assert len(socket.cores) == 6

    def test_cores_share_llc(self, env, rng):
        socket = CpuSocket(env, XEON_E5_2620, DEFAULT_CACHE, rng)
        assert all(core.llc is socket.llc for core in socket.cores)

    def test_pool_factory_shares_llc(self, env, rng):
        socket = CpuSocket(env, XEON_E5_2620, DEFAULT_CACHE, rng)
        pool = socket.pool(count=2)
        assert pool.llc is socket.llc
        assert pool.count == 2
