"""Channel conservation on real experiment points (ROADMAP 5b).

Every item a :class:`~repro.sim.channel.Channel` accepts through
``push``/``push_many`` must, at the end of a run, be accounted for
exactly once: landed in the sink (``delivered``), refused by it or a
fault rule (``dropped``), or still riding the hop (``_in_flight``).
One fast point each of E04 (Lynx data plane, per-item ``push``), E12
(host service plane behind scalar clients) and E18 (population bursts
through ``push_many`` and a multi-rack fabric with a rack outage) runs
with every channel it builds recorded; the identity is then checked
per channel.
"""

import pytest

from repro.experiments import e04_fig6_throughput_grid as e04
from repro.experiments import e12_fig9_memcached as e12
from repro.experiments import e18_cluster as e18
from repro.experiments.sweep import run_points
from repro.sim.channel import Channel


@pytest.fixture
def channels(monkeypatch):
    """Record every Channel built, and the items pushed onto each."""
    made = []
    init, push, push_many = (Channel.__init__, Channel.push,
                             Channel.push_many)

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.pushed_items = 0
        made.append(self)

    def counting_push(self, item, nbytes=0):
        self.pushed_items += 1
        push(self, item, nbytes)

    def counting_push_many(self, items, nbytes=0):
        self.pushed_items += len(items)
        push_many(self, items, nbytes)

    monkeypatch.setattr(Channel, "__init__", recording_init)
    monkeypatch.setattr(Channel, "push", counting_push)
    monkeypatch.setattr(Channel, "push_many", counting_push_many)
    return made


def _assert_conserved(made):
    pushed = [ch for ch in made if ch.pushed_items]
    assert pushed, "no channel carried a push"
    for ch in pushed:
        accounted = ch.delivered + ch.dropped + len(ch._in_flight)
        assert ch.pushed_items == accounted, (
            "%s: pushed %d != delivered %d + dropped %d + in flight %d"
            % (ch.name, ch.pushed_items, ch.delivered, ch.dropped,
               len(ch._in_flight)))
    return pushed


def test_e04_lynx_point_conserves(channels):
    (point,) = [p for p in e04.sweep_points(fast=True, seed=42,
                                            measure=4000.0, warmup=1000.0)
                if p.key[1:] == ("lynx-bluefield", 20.0, 240)]
    run_points([point], jobs=1)
    pushed = _assert_conserved(channels)
    assert sum(ch.delivered for ch in pushed) > 1000


def test_e12_memcached_point_conserves(channels):
    (point,) = [p for p in e12.sweep_points(fast=True, seed=42,
                                            measure=4000.0)
                if p.key == ("E12", "A")]
    run_points([point], jobs=1)
    pushed = _assert_conserved(channels)
    assert sum(ch.delivered for ch in pushed) > 1000


def test_e18_failover_point_conserves(channels):
    e18.cluster_scenario("p2c", 8, True, warmup=1000.0, measure=6000.0,
                         seed=42)
    pushed = _assert_conserved(channels)
    # The rack outage refuses frames on the fabric hops.
    assert sum(ch.dropped for ch in pushed) > 0
    assert sum(ch.delivered for ch in pushed) > 1000
