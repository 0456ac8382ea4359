#!/usr/bin/env python3
"""The section 8 story: deploying SP5 onto a grid without changing it.

The real SP5 (BaBar detector simulation) could not be modified, could
not have filesystem clients installed for it, and its data had to stay
on home storage protected by grid credentials.  The TSS answer:

1. the collaboration's *home storage* is a Chirp server whose ACL admits
   only Globus-credentialed members of the virtual organization,
2. the (synthetic) SP5 application is installed there once,
3. a "grid worker node" runs the unmodified application under the
   adapter's interposition, loading libraries and writing outputs over
   the wire with the user's GSI proxy.

Run::

    python examples/grid_physics_sp5.py
"""

import getpass
import os
import tempfile
import time

from repro import (
    Adapter,
    AuthContext,
    ClientCredentials,
    FileServer,
    ServerConfig,
    SimulatedCA,
    interposed,
)
from repro.apps.sp5 import SyntheticSP5


def run(workspace: str) -> None:
    ca = SimulatedCA("BaBarGridCA")  # the VO's certificate authority

    # -- the collaboration's home storage server ---------------------------
    home_root = os.path.join(workspace, "home-storage")
    os.makedirs(home_root)
    server = FileServer(
        ServerConfig(
            root=home_root,
            owner=f"unix:{getpass.getuser()}",
            name="babar-home",
            auth=AuthContext(
                enabled=("globus", "unix"),
                trusted_cas={ca.name: ca.secret},
            ),
        )
    ).start()
    host, port = server.address
    print(f"home storage: {host}:{port} (globus auth, CA={ca.name})")

    # the admin opens the export to the virtual organization only
    admin = Adapter(credentials=ClientCredentials(methods=("unix",)))
    chirp = admin.pool.get(host, port)
    chirp.setacl("/", "globus:/O=BaBar/*", "rwl")
    print("ACL:", chirp.getacl("/").to_text().strip().replace("\n", " | "))

    # -- install the application once, from the admin side ------------------
    app_url = f"/cfs/{host}:{port}/sp5"
    installer = SyntheticSP5(app_url, scale=0.3)
    with interposed(admin):
        installer.install()
    print(
        f"installed SP5: {installer.stats.files_installed} files, "
        f"{installer.stats.bytes_installed // 1000} kB"
    )

    # -- a grid job runs it, unmodified, with a GSI proxy --------------------
    alice_cred = ca.issue("/O=BaBar/OU=nikhef.nl/CN=Sander Klous")
    grid_job = Adapter(
        credentials=ClientCredentials(methods=("globus",), globus=alice_cred)
    )
    print(f"\ngrid job authenticates as: {grid_job.pool.get(host, port).whoami()}")

    app = SyntheticSP5(app_url, scale=0.3)
    with interposed(grid_job):
        t0 = time.monotonic()
        app.initialize()
        init_s = time.monotonic() - t0
        t0 = time.monotonic()
        app.process_events(10)
        events_s = time.monotonic() - t0
        verified = app.verify_outputs()
    print(
        f"init: {app.stats.files_read} files / {app.stats.bytes_read // 1000} kB "
        f"in {init_s:.2f}s over the wire"
    )
    print(f"events: 10 processed in {events_s:.2f}s, {verified} outputs verified")

    # an outsider with a certificate from the wrong CA gets nowhere
    rogue_ca = SimulatedCA("SomeOtherCA")
    rogue_cred = rogue_ca.issue("/O=BaBar/CN=Mallory")  # right DN, wrong CA
    try:
        Adapter(
            credentials=ClientCredentials(methods=("globus",), globus=rogue_cred)
        ).listdir(app_url)
        print("ERROR: rogue credential was accepted!")
    except Exception as exc:
        print(f"\nrogue CA rejected as expected: {type(exc).__name__}")

    grid_job.close()
    admin.close()
    server.stop()
    print("\nSP5 grid deployment example complete.")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="tss-sp5-") as workspace:
        run(workspace)


if __name__ == "__main__":
    main()
