"""Every golden CLI capture is byte-identical to the pinned outputs.

``golden_cli.py`` runs 589 in-process CLI invocations and network exports
and digests their exit codes and stdouts.  A change that alters any output
changes the total digest; run ``golden_cli.py`` directly to see which
command group moved, and ``--save DIR`` to diff the captures themselves.
"""

from __future__ import annotations

import golden_cli

TOTAL = (589, "44a9f6ed0e69ddd9b4158056261434c4c18bf3ab31a1aa5b3bfef78be9d0a863")


def test_total_digest_is_pinned():
    assert golden_cli.digests()["total"] == TOTAL
