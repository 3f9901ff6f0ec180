"""Registered bi-decomposition backends.

The symbolic BDD path (Sections 3.3-3.4 of the paper) and the
CEGAR-solved 2QBF formulation (*QBF-Based Boolean Function
Bi-Decomposition*) answer the same question — does a nontrivial
``f = h(g1, g2)`` exist inside a care interval — with very different
cost profiles.  This package makes the choice a first-class, routable
decision, mirroring the engine's ``@register_pass`` idiom:

* :func:`register_backend` / :func:`make_backend` — a string-keyed
  registry of backend classes.  A backend exposes ``name`` and
  ``decompose_interval(interval, *, gates, require_nontrivial,
  objective, max_support)`` returning an
  :class:`~repro.bidec.api.BiDecomposition` or ``None``; whatever it
  returns must satisfy ``verify()`` against the interval, which the
  differential harness enforces across backends.
* :func:`route_backend` — the pure routing function behind
  ``--backend auto``: deterministic in the cone's support size and
  interval node count, so parallel runs dispatch identically for any
  worker count.
* :func:`backend_for_interval` — the engine-facing helper that routes
  one cone and instantiates the chosen backend.  It returns ``None``
  for the ``bdd`` choice so the classic code path stays exactly as it
  was (no wrapper object, no behaviour drift).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.intervals import Interval

_REGISTRY: dict[str, type] = {}

#: ``auto`` routes a cone to ``sat-cegar`` when the interval's support
#: exceeds this (the symbolic partition space enumerates subsets of the
#: support, so cost grows with 3^n) ...
AUTO_SUPPORT_THRESHOLD = 10
#: ... or when the interval's BDD is already this large (BDD-hostile
#: cones are the SAT backend's motivating scenario).
AUTO_NODE_THRESHOLD = 4096

#: Values accepted by ``SynthesisOptions.backend`` / ``--backend``.
BACKEND_CHOICES = ("bdd", "sat-cegar", "auto")


def register_backend(name: str) -> Callable[[type], type]:
    """Class decorator registering a decomposition backend under
    ``name`` (the engine's ``register_pass`` idiom)."""

    def decorator(cls: type) -> type:
        if name in _REGISTRY:  # pragma: no cover - programming error
            raise ValueError(f"duplicate backend name: {name!r}")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return decorator


def _load_builtin_backends() -> None:
    # Imported for their registration side effects only.
    from repro.bidec.backends import bdd as _bdd  # noqa: F401
    from repro.bidec.backends import sat_cegar as _sat_cegar  # noqa: F401


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    _load_builtin_backends()
    return sorted(_REGISTRY)


def make_backend(name: str, **params):
    """Instantiate the backend registered under ``name``."""
    _load_builtin_backends()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown decomposition backend {name!r} (known: {known})"
        ) from None
    return cls(**params)


def route_backend(
    option: str, *, support_size: int, node_count: Optional[int] = None
) -> str:
    """Resolve a ``--backend`` option to a concrete backend name for one
    cone.

    Pure and deterministic in its arguments: ``auto`` picks
    ``sat-cegar`` when the cone looks BDD-hostile (wide support or a
    large interval BDD) and ``bdd`` otherwise.  Because the decision
    depends only on the cone itself, serial and parallel dispatch agree
    bit-for-bit for every worker count.
    """
    if option in ("", None, "bdd"):
        return "bdd"
    if option == "sat-cegar":
        return "sat-cegar"
    if option == "auto":
        if support_size > AUTO_SUPPORT_THRESHOLD:
            return "sat-cegar"
        if node_count is not None and node_count > AUTO_NODE_THRESHOLD:
            return "sat-cegar"
        return "bdd"
    raise ValueError(
        f"unknown backend option {option!r} (expected one of "
        f"{', '.join(BACKEND_CHOICES)})"
    )


def backend_for_interval(
    option: str,
    interval: "Interval",
    *,
    cegar_iterations: int = 512,
    governor=None,
) -> tuple[str, Optional[object]]:
    """Route one cone's interval and instantiate the chosen backend.

    Returns ``(name, backend)`` where ``backend`` is ``None`` for the
    ``bdd`` choice — callers keep their existing direct
    ``decompose_cone`` path in that case, so the default configuration
    is byte-for-byte the pre-backend behaviour.
    """
    if option in ("", None, "bdd"):
        return "bdd", None
    from repro.bdd import count as _count

    support_size = len(interval.support())
    node_count = _count.dag_size_multi(
        interval.manager, [interval.lower, interval.upper]
    )
    name = route_backend(
        option, support_size=support_size, node_count=node_count
    )
    if name == "bdd":
        return "bdd", None
    backend = make_backend(
        name, max_iterations=cegar_iterations, governor=governor
    )
    return name, backend


__all__ = [
    "AUTO_NODE_THRESHOLD",
    "AUTO_SUPPORT_THRESHOLD",
    "BACKEND_CHOICES",
    "available_backends",
    "backend_for_interval",
    "make_backend",
    "register_backend",
    "route_backend",
]
