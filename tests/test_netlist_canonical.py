"""Property-style tests for the canonical-form machinery.

The service cache's correctness rests on two claims: isomorphic
instances (translated / mirrored / net-relabeled) hash identically, and
genuinely different instances do not collide.  Both are checked here
over the generator families, together with the payload-remapping round
trip the cache uses to serve one instance's result to another.
"""

import json

import pytest

from repro.core import route_problem
from repro.core.serialize import rebuild_grid, result_to_dict
from repro.analysis.verify import verify_routing
from repro.engine import EngineConfig, RoutingEngine
from repro.geometry.rect import Rect
from repro.geometry.region import RectilinearRegion
from repro.netlist.canonical import (
    canonical_form,
    payload_from_canonical,
    payload_to_canonical,
)
from repro.netlist.generators import (
    random_switchbox,
    woven_region_problem,
    woven_switchbox,
)
from repro.netlist.instances import obstacle_region_problem, small_switchbox
from repro.netlist.io import problem_to_dict
from repro.netlist.net import Net, Pin
from repro.netlist.problem import Obstacle, RoutingProblem
from repro.service.cache import CanonicalCache


def digest_of(problem):
    """The content hash the service caches by."""
    return canonical_form(problem).digest


def mirror_problem(problem, mirror_x=False, mirror_y=False):
    """An explicitly mirrored copy of a full-grid problem."""
    w, h = problem.width, problem.height

    def flip(x, y):
        return (w - 1 - x if mirror_x else x, h - 1 - y if mirror_y else y)

    def flip_rect(rect):
        x0, x1 = (w - rect.x1, w - rect.x0) if mirror_x else (rect.x0, rect.x1)
        y0, y1 = (h - rect.y1, h - rect.y0) if mirror_y else (rect.y0, rect.y1)
        return Rect(x0, y0, x1, y1)

    nets = [
        Net(net.name, tuple(Pin(*flip(p.x, p.y), p.layer) for p in net.pins))
        for net in problem.nets
    ]
    obstacles = [
        Obstacle(flip_rect(o.rect), o.layer) for o in problem.obstacles
    ]
    region = None
    if problem.region is not None:
        region = RectilinearRegion(
            [flip_rect(r) for r in problem.region.to_rects()]
        )
    return RoutingProblem(
        width=w, height=h, nets=nets, obstacles=obstacles, region=region,
        name=problem.name + "-mirrored",
    )


def translate_problem(problem, dx, dy):
    """The same instance shifted inside a larger grid via a region."""
    w, h = problem.width + dx, problem.height + dy
    base = problem.region.to_rects() if problem.region is not None else [
        Rect(0, 0, problem.width, problem.height)
    ]
    region = RectilinearRegion(
        [Rect(r.x0 + dx, r.y0 + dy, r.x1 + dx, r.y1 + dy) for r in base]
    )
    nets = [
        Net(net.name, tuple(Pin(p.x + dx, p.y + dy, p.layer)
                            for p in net.pins))
        for net in problem.nets
    ]
    obstacles = [
        Obstacle(
            Rect(o.rect.x0 + dx, o.rect.y0 + dy,
                 o.rect.x1 + dx, o.rect.y1 + dy),
            o.layer,
        )
        for o in problem.obstacles
    ]
    return RoutingProblem(
        width=w, height=h, nets=nets, obstacles=obstacles, region=region,
        name=problem.name + "-shifted",
    )


def relabel_problem(problem):
    """Net names scrambled and list order reversed."""
    nets = [
        Net(f"zz-{index}-{net.name}", net.pins)
        for index, net in enumerate(problem.nets)
    ]
    return RoutingProblem(
        width=problem.width, height=problem.height,
        nets=list(reversed(nets)),
        obstacles=list(problem.obstacles), region=problem.region,
        name="relabeled",
    )


def prefix_problem(problem, prefix):
    """The same instance with every net name prefixed."""
    return RoutingProblem(
        width=problem.width, height=problem.height,
        nets=[Net(prefix + net.name, net.pins) for net in problem.nets],
        obstacles=list(problem.obstacles), region=problem.region,
        name=prefix + problem.name,
    )


def generator_family():
    return [
        small_switchbox().to_problem(),
        random_switchbox(10, 8, 6, seed=2).to_problem(),
        woven_switchbox(12, 9, 8, seed=5, tangle=0.3).to_problem(),
        obstacle_region_problem(),
        woven_region_problem(seed=3, tangle=0.5),
    ]


class TestInvariance:
    @pytest.mark.parametrize("problem", generator_family(),
                             ids=lambda p: p.name)
    def test_mirror_variants_hash_identically(self, problem):
        digest = digest_of(problem)
        for mx, my in ((True, False), (False, True), (True, True)):
            assert digest_of(
                mirror_problem(problem, mx, my)
            ) == digest, f"mirror ({mx},{my}) changed the digest"

    @pytest.mark.parametrize("problem", generator_family(),
                             ids=lambda p: p.name)
    def test_relabeling_hashes_identically(self, problem):
        assert digest_of(relabel_problem(problem)) == \
            digest_of(problem)

    @pytest.mark.parametrize("problem", generator_family(),
                             ids=lambda p: p.name)
    def test_translation_hashes_identically(self, problem):
        shifted = translate_problem(problem, 3, 2)
        assert digest_of(shifted) == digest_of(problem)

    def test_composed_isomorphism(self):
        problem = woven_switchbox(11, 7, 6, seed=8, tangle=0.2).to_problem()
        variant = relabel_problem(
            translate_problem(mirror_problem(problem, True, True), 4, 1)
        )
        assert digest_of(variant) == digest_of(problem)


class TestDistinctness:
    def test_distinct_generator_instances_do_not_collide(self):
        digests = {}
        problems = generator_family() + [
            random_switchbox(10, 8, 6, seed=s).to_problem()
            for s in range(3, 11)
        ] + [
            woven_switchbox(12, 9, 8, seed=s, tangle=0.3).to_problem()
            for s in range(6, 12)
        ]
        for problem in problems:
            digest = digest_of(problem)
            assert digest not in digests, (
                f"{problem.name} collides with {digests[digest]}"
            )
            digests[digest] = problem.name

    def test_moving_one_pin_changes_the_digest(self):
        base = small_switchbox().to_problem()
        nets = [
            Net(net.name, tuple(
                Pin(p.x, p.y + (1 if net is base.nets[0] and i == 0 else 0),
                    p.layer)
                for i, p in enumerate(net.pins)
            ))
            for net in base.nets
        ]
        moved = RoutingProblem(
            width=base.width, height=base.height, nets=nets, name="moved"
        )
        assert digest_of(moved) != digest_of(base)

    def test_an_obstacle_changes_the_digest(self):
        base = woven_switchbox(12, 9, 8, seed=5, tangle=0.3).to_problem()
        blocked = RoutingProblem(
            width=base.width, height=base.height, nets=list(base.nets),
            obstacles=[Obstacle(Rect(5, 4, 6, 5))], name="blocked",
        )
        assert digest_of(blocked) != digest_of(base)


class TestTransformRoundTrip:
    @pytest.mark.parametrize("problem", generator_family(),
                             ids=lambda p: p.name)
    def test_point_round_trip(self, problem):
        transform = canonical_form(problem).transform
        for x in range(problem.width):
            for y in range(problem.height):
                assert transform.from_canonical(
                    *transform.to_canonical(x, y)
                ) == (x, y)

    def test_net_map_is_a_bijection(self):
        form = canonical_form(woven_region_problem(seed=3, tangle=0.5))
        assert sorted(form.label_to_net) == sorted(form.net_to_label.values())
        for name, label in form.net_to_label.items():
            assert form.label_to_net[label] == name


class TestPayloadRemap:
    def test_cached_result_serves_an_isomorphic_instance(self):
        # Route instance A, push its payload to canonical space, render
        # it for the mirrored+relabeled instance B, and verify B's copy
        # against B's own problem statement — the cache's core move.
        problem_a = small_switchbox().to_problem()
        problem_b = relabel_problem(mirror_problem(problem_a, True, False))
        form_a = canonical_form(problem_a)
        form_b = canonical_form(problem_b)
        assert form_a.digest == form_b.digest

        payload_a = result_to_dict(route_problem(problem_a))
        canonical = payload_to_canonical(payload_a, form_a)
        payload_b = payload_from_canonical(
            canonical, form_b, problem_to_dict(problem_b)
        )
        json.dumps(payload_b)  # stays JSON-compatible
        assert {e["net"] for e in payload_b["connections"]} <= {
            net.name for net in problem_b.nets
        }
        grid_b = rebuild_grid(payload_b)
        assert verify_routing(problem_b, grid_b).ok

    def test_cache_hit_names_the_requesting_instance_victims(self):
        """Weak and strong details name victim nets; a cache hit must
        name the requesting instance's nets there too, not the nets of
        the instance that was routed."""
        box = woven_switchbox(23, 15, 24, seed=5, tangle=0.5).to_problem()
        alpha = prefix_problem(box, "alpha_")
        beta = prefix_problem(box, "beta_")
        result = RoutingEngine(EngineConfig(max_attempts=2)).route(alpha)
        routed = result_to_dict(result)
        assert {"weak", "strong"} & {e["kind"] for e in routed["events"]}

        cache = CanonicalCache()
        assert cache.store(canonical_form(alpha), routed)
        reply = cache.render(canonical_form(beta), problem_to_dict(beta))
        assert reply["events"] == [
            dict(
                event,
                net=event["net"].replace("alpha_", "beta_"),
                detail=event["detail"].replace("alpha_", "beta_"),
            )
            for event in routed["events"]
        ]

    def test_victim_names_with_quotes_and_commas(self):
        names = ["it's", 'say "hi"', "a, b", "back\\slash"]
        problem = RoutingProblem(
            6, 6,
            nets=[
                Net(name, (Pin(x, 0), Pin(x, 5)))
                for x, name in enumerate(names)
            ],
        )
        form = canonical_form(problem)
        victims = sorted(names[1:])
        payload = {
            "events": [
                {"kind": "weak", "net": names[0],
                 "detail": f"displaced {victims}"},
                {"kind": "strong", "net": names[0],
                 "detail": f"ripped {victims}"},
            ]
        }
        canonical = payload_to_canonical(payload, form)
        labels = sorted(form.net_to_label[name] for name in victims)
        assert [e["detail"] for e in canonical["events"]] == [
            f"displaced {labels}", f"ripped {labels}"
        ]
        rendered = payload_from_canonical(
            canonical, form, problem_to_dict(problem)
        )
        assert rendered["events"] == payload["events"]

    def test_identity_remap_is_lossless(self):
        problem = obstacle_region_problem()
        form = canonical_form(problem)
        payload = result_to_dict(route_problem(problem))
        rendered = payload_from_canonical(
            payload_to_canonical(payload, form), form,
            problem_to_dict(problem),
        )
        assert rendered["connections"] == payload["connections"]
        assert rendered["events"] == payload["events"]
        assert rendered["stats"] == payload["stats"]
