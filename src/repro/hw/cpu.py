"""CPU cores and sockets.

Two kinds of work run on cores:

* *calibrated* work — network-stack and runtime costs whose durations
  are already expressed for the owning platform (see
  :mod:`repro.config`); charged as-is.
* *compute* work — application cycles expressed in Xeon-core
  microseconds; scaled by the core's ``speed_factor`` and subject to
  LLC interference when a working set / memory intensity is declared.
"""

from ..errors import ConfigError
from ..sim import Resource
from .. import telemetry


class Core:
    """One CPU core (a unit-capacity resource with a cost model)."""

    def __init__(self, env, profile, index, llc=None, name=None):
        self.env = env
        self.profile = profile
        self.index = index
        self.llc = llc
        self.name = name or "%s/core%d" % (profile.name, index)
        self._res = Resource(env, 1, name=self.name)

    @property
    def busy(self):
        return self._res.in_use > 0

    @property
    def utilization(self):
        return self._res.utilization.mean()

    def run_calibrated(self, duration):
        """Generator: occupy the core for a platform-calibrated duration."""
        if duration < 0:
            raise ConfigError("negative duration")
        with self._res.request() as req:
            yield req
            yield self.env.charge(duration)

    def run_compute(self, xeon_us, memory_intensity=0.0, working_set=0):
        """Generator: run compute work of *xeon_us* Xeon-microseconds.

        The duration is scaled by the core speed and, if a working set
        is declared, by the socket's LLC interference model.
        """
        if xeon_us < 0:
            raise ConfigError("negative duration")
        with self._res.request() as req:
            yield req
            duration = xeon_us / self.profile.speed_factor
            token = None
            if self.llc is not None and working_set > 0:
                token = self.llc.occupy(working_set)
            try:
                if self.llc is not None and memory_intensity > 0:
                    duration *= self.llc.penalty(memory_intensity)
                yield self.env.charge(duration)
            finally:
                if token is not None:
                    self.llc.release(token)


class CorePool:
    """A set of interchangeable cores behind one run queue.

    Used for worker pools (SNIC worker cores, host server cores) where
    any core may pick up the next task.
    """

    def __init__(self, env, profile, count=None, llc=None, name=None):
        count = profile.cores if count is None else count
        if count < 1:
            raise ConfigError("core pool needs at least one core")
        self.env = env
        self.profile = profile
        self.count = count
        self.llc = llc
        self.name = name or "%s-pool" % profile.name
        self._res = Resource(env, count, name=self.name)
        #: pool-wide cache behaviour of calibrated (serving-path) work
        self.default_memory_intensity = 0.0
        self.default_working_set = 0
        # Telemetry (DESIGN.md §4.9): the Resource's gauges are already
        # maintained inline on the hot request/grant/release path —
        # registering them costs the data plane nothing.  The run-queue
        # depth gauge is the software stack's queue-depth signal.
        reg = telemetry.registry()
        base = "hw.cpu.%s." % self.name
        reg.register(base + "utilization", self._res.utilization)
        reg.register(base + "runq_depth", self._res.queue_depth)
        #: free :class:`_CalibratedRun` records (see run_calibrated_then)
        self._run_pool = []

    @property
    def in_use(self):
        return self._res.in_use

    @property
    def utilization(self):
        return self._res.utilization.mean()

    @property
    def queue_depth(self):
        return self._res.waiting

    def run_calibrated(self, duration, priority=0, memory_intensity=None,
                       working_set=None):
        """Generator: any free core runs platform-calibrated work.

        Lower *priority* values are served first when cores are
        contended (egress work uses a negative priority so responses
        are not starved by an ingress flood).  Memory intensity /
        working set default to the pool-wide values so a whole serving
        path can be made cache-sensitive at construction time.
        """
        if duration < 0:
            raise ConfigError("negative duration")
        if memory_intensity is None:
            memory_intensity = self.default_memory_intensity
        if working_set is None:
            working_set = self.default_working_set
        req = self._res.request(priority=priority)
        try:
            yield req
            llc = self.llc
            if llc is None or working_set <= 0:
                # Fast path: no LLC occupancy to register, so skip the
                # _timed sub-generator and charge directly.
                if llc is not None and memory_intensity > 0:
                    duration *= llc.penalty(memory_intensity)
                yield self.env.charge(duration)
            else:
                yield from self._timed(duration, memory_intensity,
                                       working_set, aggressor=False)
        finally:
            req.release()

    def run_calibrated_then(self, duration, callback, priority=0,
                            memory_intensity=None, working_set=None):
        """Callback twin of :meth:`run_calibrated`: run the work, then
        call *callback(event)*.

        Same schedule slots as the generator — grant, charge, release —
        with the same LLC occupancy and penalty draws, through a pooled
        op record, so steady state allocates nothing.
        """
        if duration < 0:
            raise ConfigError("negative duration")
        pool = self._run_pool
        op = pool.pop() if pool else _CalibratedRun(self)
        op.duration = duration
        op.mi = (self.default_memory_intensity if memory_intensity is None
                 else memory_intensity)
        op.ws = self.default_working_set if working_set is None else working_set
        op.callback = callback
        self._res.acquire(op._granted, priority)

    def run_compute(self, xeon_us, memory_intensity=0.0, working_set=0,
                    priority=0, aggressor=False):
        """Generator: any free core runs compute work (Xeon-us units).

        *aggressor* marks cache-filling work that occupies the LLC but
        only suffers the (mild) aggressor slowdown itself.
        """
        if xeon_us < 0:
            raise ConfigError("negative duration")
        duration = xeon_us / self.profile.speed_factor
        req = self._res.request(priority=priority)
        try:
            yield req
            llc = self.llc
            if llc is None or (working_set <= 0 and not aggressor):
                if llc is not None and memory_intensity > 0:
                    duration *= llc.penalty(memory_intensity)
                yield self.env.charge(duration)
            else:
                yield from self._timed(duration, memory_intensity,
                                       working_set, aggressor)
        finally:
            req.release()

    def _timed(self, duration, memory_intensity, working_set, aggressor):
        token = None
        if self.llc is not None and working_set > 0:
            token = self.llc.occupy(working_set)
        try:
            if self.llc is not None:
                if aggressor:
                    duration *= self.llc.aggressor_penalty()
                elif memory_intensity > 0:
                    duration *= self.llc.penalty(memory_intensity)
            yield self.env.charge(duration)
        finally:
            if token is not None:
                self.llc.release(token)


class _CalibratedRun:
    """One in-flight :meth:`CorePool.run_calibrated_then` (pooled)."""

    __slots__ = ("pool", "duration", "mi", "ws", "token", "callback")

    def __init__(self, pool):
        self.pool = pool
        self.duration = 0.0
        self.mi = 0.0
        self.ws = 0
        self.token = None
        self.callback = None

    def _granted(self, _event):
        pool = self.pool
        llc = pool.llc
        duration = self.duration
        if llc is None or self.ws <= 0:
            if llc is not None and self.mi > 0:
                duration *= llc.penalty(self.mi)
        else:
            # The _timed leg: LLC occupancy held for the span of the
            # charge, occupied before the penalty draw.
            self.token = llc.occupy(self.ws)
            if self.mi > 0:
                duration *= llc.penalty(self.mi)
        pool.env.defer(duration, self._charged)

    def _charged(self, event):
        pool = self.pool
        token = self.token
        if token is not None:
            pool.llc.release(token)
            self.token = None
        pool._res.free()
        callback = self.callback
        self.callback = None
        pool._run_pool.append(self)
        callback(event)


class CpuSocket:
    """All the cores of one processor plus the shared LLC."""

    def __init__(self, env, profile, cache_profile, rng, name=None):
        from .cache import LLCModel

        self.env = env
        self.profile = profile
        self.name = name or profile.name
        self.llc = LLCModel(env, profile.llc_bytes, cache_profile, rng)
        self.cores = [Core(env, profile, i, llc=self.llc,
                           name="%s/core%d" % (self.name, i))
                      for i in range(profile.cores)]

    def pool(self, count=None, name=None):
        """A fresh :class:`CorePool` drawing on this socket's profile.

        Note: pools created here share the socket's LLC (interference
        couples them) but model distinct core subsets, mirroring how the
        paper pins workloads to disjoint cores.
        """
        return CorePool(self.env, self.profile, count=count, llc=self.llc,
                        name=name)
