"""A registry of named instances used by examples, benchmarks and tests.

``get_instance(name)`` builds a fresh network for a registered name; the
registry keeps the benchmark harness declarative (each bench names the
instances it sweeps instead of re-implementing constructors).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..wardrop.network import WardropNetwork
from .braess import braess_network
from .city import synthetic_city_network
from .grids import grid_network
from .parallel_links import heterogeneous_affine_links, identical_linear_links, pigou_like_links
from .pigou import pigou_network
from .random_networks import random_layered_network
from .tntp import load_tntp_instance, sioux_falls_network
from .two_links import two_link_network

InstanceFactory = Callable[[], WardropNetwork]

_REGISTRY: Dict[str, InstanceFactory] = {
    "two-links": lambda: two_link_network(beta=1.0),
    "two-links-steep": lambda: two_link_network(beta=8.0),
    "pigou-linear": lambda: pigou_network(degree=1),
    "pigou-quadratic": lambda: pigou_network(degree=2),
    "braess": lambda: braess_network(with_shortcut=True),
    "braess-no-shortcut": lambda: braess_network(with_shortcut=False),
    "parallel-4": lambda: identical_linear_links(4),
    "parallel-8-affine": lambda: heterogeneous_affine_links(8, seed=7),
    "parallel-16-affine": lambda: heterogeneous_affine_links(16, seed=7),
    "pigou-like-6": lambda: pigou_like_links(6, degree=2),
    "grid-3x3": lambda: grid_network(3, 3, num_commodities=1, seed=3),
    "grid-3x3-2c": lambda: grid_network(3, 3, num_commodities=2, seed=3),
    "random-layered": lambda: random_layered_network(num_layers=3, width=3, seed=11),
    # Real road networks (TNTP fixtures): restricted path sets seeded with
    # free-flow shortest paths, meant to grow by column generation.
    "sioux-falls": sioux_falls_network,
    "sioux-falls-mini": lambda: sioux_falls_network(max_od_pairs=40),
    # Synthetic city: 16x16 street grid with arterial corridors, 960 directed
    # links -- the city-scale target of the batched column-generation driver.
    "city-grid": synthetic_city_network,
    "city-grid-mini": lambda: synthetic_city_network(
        blocks=4, arterial_every=2, od_pairs=4
    ),
}

# Anaheim-class TNTP file pairs load through a dynamic name instead of a
# registration: ``tntp:<net_path>,<trips_path>``.  The separator is a comma
# because paths routinely contain colons on some platforms.
_TNTP_PREFIX = "tntp:"


def _load_dynamic_tntp(name: str) -> WardropNetwork:
    spec = name[len(_TNTP_PREFIX) :]
    parts = spec.split(",")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise KeyError(
            f"malformed TNTP instance name {name!r}; "
            "expected 'tntp:<net_path>,<trips_path>'"
        )
    net_path, trips_path = (part.strip() for part in parts)
    return load_tntp_instance(net_path, trips_path, name=name)


def register_instance(name: str, factory: InstanceFactory, overwrite: bool = False) -> None:
    """Register a new named instance factory.

    Raises ``ValueError`` if the name is already taken and ``overwrite`` is
    not set.
    """
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"instance {name!r} is already registered")
    _REGISTRY[name] = factory


def get_instance(name: str) -> WardropNetwork:
    """Build and return the registered instance ``name``.

    Besides registered names, ``tntp:<net_path>,<trips_path>`` loads an
    arbitrary TNTP file pair (Anaheim-class networks that are too large to
    bundle) through :func:`repro.instances.tntp.load_tntp_instance`.
    """
    if name.startswith(_TNTP_PREFIX):
        return _load_dynamic_tntp(name)
    try:
        factory = _REGISTRY[name]
    except KeyError as error:
        raise KeyError(
            f"unknown instance {name!r}; available: {', '.join(sorted(_REGISTRY))} "
            "(or 'tntp:<net_path>,<trips_path>' for an external TNTP pair)"
        ) from error
    network = factory()
    # Stamp the registry name so engine_run spans, ledger fingerprints and
    # network reports can identify the instance.  It overrides any name the
    # factory set: sioux-falls-mini must not report itself as sioux-falls.
    network.graph.graph["name"] = name
    return network


def available_instances() -> List[str]:
    """Return the sorted list of registered instance names."""
    return sorted(_REGISTRY)
