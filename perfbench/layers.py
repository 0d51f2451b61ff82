"""Map simulator modules to layers and bucket a cProfile run by layer.

A layer is a set of modules under ``src/repro/``.  ``sim`` and ``net``
are split module by module because their modules do very different
work; every other package is one layer.  The ``sim`` and ``net`` tables
are explicit, so a new module there maps to no layer until it is added
below (``test_perfbench.py`` checks that every module maps).

Bucketing reads the stats dict of :class:`cProfile.Profile` (the format
``pstats`` uses: ``(file, line, name) -> (cc, nc, tt, ct, callers)``).
A ``repro`` function's self time and primitive calls go to its own
layer.  The self time of every other function (builtins such as
``heappush`` or ``list.append``, generator ``send``, numpy) is folded
into the layers of its callers, split by how much of that time each
caller caused, recursively up to the nearest ``repro`` caller.  What has
no ``repro`` caller at all stays unattributed as ``other``.
"""

import os

OTHER = "other"

#: ``repro.sim`` modules by layer; ``stats`` and ``trace`` are
#: measurement code and belong to ``telemetry``
_SIM = {
    "repro.sim": "sim.kernel",
    "repro.sim.environment": "sim.kernel",
    "repro.sim.events": "sim.kernel",
    "repro.sim.wheel": "sim.kernel",
    "repro.sim.batchexec": "sim.kernel",
    "repro.sim.landing": "sim.kernel",
    "repro.sim.rng": "sim.kernel",
    "repro.sim.resources": "sim.resources",
    "repro.sim.store": "sim.store",
    "repro.sim.channel": "sim.channel",
    "repro.sim.stats": "telemetry",
    "repro.sim.trace": "telemetry",
}

#: ``repro.net`` modules by layer; the scalar client plane is
#: ``client`` plus the packets and arrival processes it builds
_NET = {
    "repro.net": "net.stack",
    "repro.net.client": "net.client",
    "repro.net.packet": "net.client",
    "repro.net.arrivals": "net.client",
    "repro.net.population": "net.population",
    "repro.net.network": "net.network",
    "repro.net.cluster": "net.cluster",
    "repro.net.stack": "net.stack",
    "repro.net.rdma": "net.rdma",
}

#: packages that are one layer each
_PACKAGES = ("lynx", "apps", "baseline", "hw", "telemetry", "faults",
             "experiments", "report")

#: the top-level modules of ``repro``
_CORE = ("repro", "repro.config", "repro.errors", "repro.units")

LAYERS = ("sim.kernel", "sim.resources", "sim.store", "sim.channel",
          "net.client", "net.population", "net.network", "net.cluster",
          "net.stack", "net.rdma") + _PACKAGES + ("core",)


def layer_of_module(module):
    """The layer of dotted *module* (``repro.sim.events``), or ``None``."""
    if module in _CORE:
        return "core"
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    if parts[1] == "sim":
        return _SIM.get(".".join(parts[:3]))
    if parts[1] == "net":
        return _NET.get(".".join(parts[:3]))
    if parts[1] in _PACKAGES:
        return parts[1]
    return None


def module_of_file(path, package_dir):
    """Dotted module name of source *path* inside *package_dir*.

    *package_dir* is the directory of the ``repro`` package.  Returns
    ``None`` for files outside it (the stdlib, numpy, builtins).
    """
    root = os.path.normcase(os.path.abspath(package_dir)) + os.sep
    path = os.path.normcase(os.path.abspath(path))
    if not path.startswith(root) or not path.endswith(".py"):
        return None
    parts = path[len(root):-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro"] + parts)


def bucket(stats, package_dir):
    """Self seconds and primitive calls per layer of a profile.

    Returns ``(self_s, calls, total_s)``: dicts keyed by every name in
    :data:`LAYERS` plus :data:`OTHER` (``calls`` has no ``other``), and
    the profile's total self time.
    """
    own = {}
    for key in stats:
        module = module_of_file(key[0], package_dir)
        if module is not None:
            own[key] = layer_of_module(module) or OTHER
    self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    shares = {}
    total = 0.0
    for key, (cc, _nc, tt, _ct, _callers) in stats.items():
        total += tt
        layer = own.get(key)
        if layer is not None:
            self_s[layer] += tt
            if layer != OTHER:
                calls[layer] += cc
            continue
        for name, weight in _caller_shares(key, stats, own, shares,
                                           set()).items():
            self_s[name] += tt * weight
    return self_s, calls, total


def _caller_shares(key, stats, own, memo, visiting):
    """How a non-``repro`` function's self time splits over layers."""
    if key in own:
        return {own[key]: 1.0}
    if key in memo:
        return memo[key]
    if key in visiting or key not in stats:
        return {OTHER: 1.0}
    callers = stats[key][4]
    # Weight each caller by the callee time it caused; a function too
    # quick to register any time is split by call counts instead.
    field = 2 if sum(v[2] for v in callers.values()) > 0 else 0
    weights = {c: v[field] for c, v in callers.items()}
    norm = sum(weights.values())
    if norm <= 0:
        memo[key] = {OTHER: 1.0}
        return memo[key]
    visiting.add(key)
    out = {}
    for caller, weight in weights.items():
        for name, share in _caller_shares(caller, stats, own, memo,
                                          visiting).items():
            out[name] = out.get(name, 0.0) + share * weight / norm
    visiting.discard(key)
    memo[key] = out
    return out
