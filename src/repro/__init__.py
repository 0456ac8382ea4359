"""repro: a Tactical Storage System (TSS).

A reproduction of "Separating Abstractions from Resources in a Tactical
Storage System" (Thain, Klous, Wozniak, Brenner, Striegel, Izaguirre --
SC 2005).

The system has two layers plus the glue that binds them to applications:

- **Resource layer** (:mod:`repro.chirp`, :mod:`repro.catalog`): personal
  file servers exporting a Unix-like protocol with virtual user spaces and
  per-directory ACLs, plus catalogs for discovery.
- **Abstraction layer** (:mod:`repro.core`, :mod:`repro.db`): CFS, DPFS,
  DSFS and DSDB, all recursively speaking the same Unix interface.
- **Adapter** (:mod:`repro.adapter`): the Parrot analog -- a POSIX surface
  plus interposition so unmodified application code runs on TSS paths.
- **GEMS** (:mod:`repro.gems`): replication, audit and repair policies on
  the DSDB, as deployed for bioinformatics in the paper.
- **Simulation** (:mod:`repro.sim`): the calibrated discrete-event models
  that regenerate the paper's performance figures (see EXPERIMENTS.md).

Quickstart::

    from repro import FileServer, ServerConfig, Adapter

    server = FileServer(ServerConfig(root="/tmp/export", owner="unix:me"))
    server.start()
    host, port = server.address

    adapter = Adapter()
    with adapter.open(f"/cfs/{host}:{port}/hello.txt", "w") as f:
        f.write("tactical storage\\n")
"""

from repro.chirp import ChirpClient, FileServer, ServerConfig, OpenFlags
from repro.catalog import CatalogServer, CatalogClient
from repro.core import (
    CFS,
    DPFS,
    DSFS,
    DSDB,
    ClientPool,
    StoreFilesystem,
    RetryPolicy,
)
from repro.adapter import Adapter, Mountlist, interposed
from repro.db import MetadataDB, DatabaseServer, DatabaseClient, Query
from repro.transport import (
    Endpoint,
    EndpointManager,
    MetricsRegistry,
    default_registry,
)
from repro.auth import Acl, AclEntry, parse_rights
from repro.auth.methods import (
    AuthContext,
    ClientCredentials,
    SimulatedCA,
    SimulatedKDC,
)

__version__ = "1.0.0"

__all__ = [
    "ChirpClient",
    "FileServer",
    "ServerConfig",
    "OpenFlags",
    "CatalogServer",
    "CatalogClient",
    "CFS",
    "DPFS",
    "DSFS",
    "DSDB",
    "ClientPool",
    "StoreFilesystem",
    "RetryPolicy",
    "Adapter",
    "Mountlist",
    "interposed",
    "MetadataDB",
    "DatabaseServer",
    "DatabaseClient",
    "Query",
    "Endpoint",
    "EndpointManager",
    "MetricsRegistry",
    "default_registry",
    "Acl",
    "AclEntry",
    "parse_rights",
    "AuthContext",
    "ClientCredentials",
    "SimulatedCA",
    "SimulatedKDC",
    "__version__",
]
