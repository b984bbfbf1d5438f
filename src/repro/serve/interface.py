"""The object-storage interface served over the simulated file systems.

``repro.serve`` fronts the seven simulated PM file systems with an
swh-objstorage-style service: content-addressed objects (the object id
is the hex SHA-256 of the bytes) in per-tenant namespaces, with a small
put/get/exists/delete/list verb set.  Every concrete storage — the
in-memory reference, the FS-backed backend and the multiplexer that
routes tenants across a fleet — implements
:class:`ObjStorage`, and the conformance suite in ``tests/test_serve.py``
runs the same behavioural checks against all of them.

Errors reuse the :mod:`repro.errors` POSIX hierarchy so a served error
carries the same errno name the underlying file system surfaced
(``ENOENT`` for a missing object, ``EROFS`` on a degraded mount,
``EAGAIN`` for an admission-control rejection), which is what lets the
SLO error ledger account service failures with no translation layer.
"""

from __future__ import annotations

import hashlib
import re
from abc import ABC, abstractmethod
from typing import List, Optional

from ..errors import InvalidArgumentError

__all__ = ["ObjStorage", "compute_obj_id", "check_obj_id", "check_tenant",
           "OBJ_ID_LEN"]

#: hex SHA-256 digest length
OBJ_ID_LEN = 64

_OBJ_ID_RE = re.compile(r"[0-9a-f]{64}$")
_TENANT_RE = re.compile(r"[A-Za-z0-9_-]{1,64}$")


def compute_obj_id(data: bytes) -> str:
    """The content address: hex SHA-256 of the object bytes."""
    return hashlib.sha256(data).hexdigest()


def check_obj_id(obj_id: str) -> str:
    if not isinstance(obj_id, str) or not _OBJ_ID_RE.match(obj_id):
        raise InvalidArgumentError(f"malformed object id {obj_id!r}")
    return obj_id


def check_tenant(tenant: str) -> str:
    """Tenant names become path components; keep them boring."""
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise InvalidArgumentError(f"invalid tenant name {tenant!r}")
    return tenant


class ObjStorage(ABC):
    """Abstract multi-tenant object storage.

    Semantics shared by every implementation (and asserted by the
    conformance mixin):

    * ``put`` is idempotent — re-putting bytes that already exist for
      the tenant is a no-op returning the same id; a caller-supplied
      ``obj_id`` that does not match the content raises ``EINVAL``.
    * ``get``/``delete`` of an absent id raise ``ENOENT``
      (:class:`~repro.errors.NotFoundError`).
    * Tenants are fully isolated namespaces: ids never leak across
      tenants, and ``list_objects`` returns one tenant's ids sorted.
    * ``sim_ns`` is the storage's consumed simulated time — monotone
      non-decreasing across operations, and the quantity the
      differential suite proves identical between a multiplexed stream
      and the same stream run directly against the backends.
    """

    #: label used in metrics and telemetry series
    name: str = "objstorage"

    @abstractmethod
    def put(self, tenant: str, data: bytes,
            obj_id: Optional[str] = None) -> str:
        """Store *data*; returns its object id."""

    @abstractmethod
    def get(self, tenant: str, obj_id: str) -> bytes: ...

    @abstractmethod
    def exists(self, tenant: str, obj_id: str) -> bool: ...

    @abstractmethod
    def delete(self, tenant: str, obj_id: str) -> None: ...

    @abstractmethod
    def list_objects(self, tenant: str) -> List[str]:
        """Sorted object ids currently stored for *tenant*."""

    @abstractmethod
    def sim_ns(self) -> float:
        """Simulated nanoseconds this storage has consumed."""

    # -- optional hooks (no-ops by default) ---------------------------------

    def advance(self, arrival_ns: float) -> None:
        """Tell the storage the open-loop arrival clock reached
        *arrival_ns*.  Only the multiplexer's admission control cares;
        plain backends ignore it."""

    def attach_telemetry(self, telemetry) -> None:
        """Attach SLO telemetry to any underlying simulated
        file systems; storages without one ignore it."""

    def _resolve_put(self, tenant: str, data: bytes,
                     obj_id: Optional[str]) -> str:
        """Shared put-argument validation: returns the content id."""
        check_tenant(tenant)
        if not isinstance(data, (bytes, bytearray)):
            raise InvalidArgumentError("object payload must be bytes")
        computed = compute_obj_id(bytes(data))
        if obj_id is not None and check_obj_id(obj_id) != computed:
            raise InvalidArgumentError(
                f"object id {obj_id[:16]}... does not match content "
                f"{computed[:16]}...")
        return computed
