"""Registered bi-decomposition backends.

The symbolic BDD path (Sections 3.3-3.4 of the paper) and the
CEGAR-solved 2QBF formulation (*QBF-Based Boolean Function
Bi-Decomposition*) answer the same question — does a nontrivial
``f = h(g1, g2)`` exist inside a care interval — with very different
cost profiles.  This package makes the choice a first-class option,
mirroring the engine's ``@register_pass`` idiom:

* :func:`register_backend` / :func:`make_backend` — a string-keyed
  registry of backend classes.  A backend exposes ``name`` and
  ``decompose_interval(interval, *, gates, require_nontrivial,
  objective, max_support)`` returning an
  :class:`~repro.bidec.api.BiDecomposition` or ``None``; whatever it
  returns must satisfy ``verify()`` against the interval, which the
  differential harness enforces across backends.
* :func:`backend_for_interval` — the engine-facing helper that
  instantiates the chosen backend for one cone.  It returns ``None``
  for the ``bdd`` choice so the classic code path stays exactly as it
  was (no wrapper object, no behaviour drift).
"""

from __future__ import annotations

from typing import Callable, Optional

_REGISTRY: dict[str, type] = {}

#: Values accepted by ``SynthesisOptions.backend`` / ``--backend``.
BACKEND_CHOICES = ("bdd", "sat-cegar")


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


def backend_for_interval(
    option: str,
    *,
    cegar_iterations: int = 512,
    governor=None,
) -> tuple[str, Optional[object]]:
    """Instantiate the ``option`` backend for one cone.

    Returns ``(name, backend)`` where ``backend`` is ``None`` for the
    ``bdd`` choice — callers keep their existing direct
    ``decompose_cone`` path in that case, so the default configuration
    is byte-for-byte the pre-backend behaviour.
    """
    if option in ("", None, "bdd"):
        return "bdd", None
    backend = make_backend(
        option, max_iterations=cegar_iterations, governor=governor
    )
    return option, backend


__all__ = [
    "BACKEND_CHOICES",
    "available_backends",
    "backend_for_interval",
    "make_backend",
    "register_backend",
]
