"""Every golden CLI capture is byte-identical to the pinned outputs.

``golden_cli.py`` runs 589 in-process CLI invocations and network exports
and digests their exit codes and stdouts.  Each command group's
``(count, digest)`` is pinned next to the total, so a change that alters
any output names the groups that moved; run ``golden_cli.py --save DIR``
to diff the captures themselves.
"""

from __future__ import annotations

import golden_cli

PINNED = {
    "analyze": (15, "018b7227e139a3b0dfde266950a065b0b87373c6ef62a546d45949f569f35701"),
    "analyze --emit dot": (15, "2164a17b4a48a06c4d83305a4746832d39c70e1d29f7755c084c3e861c61aa26"),
    "classify": (60, "067befcae60752e088f30a1cbdb15fa69f349ef358c9412ccf2ec3494bec2727"),
    "decide": (13, "51b3c7cff90f5aaf47305f3cc0859fe89e0820b53d7c22a45a09dd67045da55f"),
    "ensemble --workers 1": (
        90, "d2e9665f8c1d8bfcb142161222f4b7a4409ebea7b7f3271bfd997924f4b6aed4"
    ),
    "ensemble --workers 2": (
        90, "5a6d00d6fc40c1ceedb4b91ade7605311db455cb6dfcb959bf97f4932a67f2ff"
    ),
    "equilibria": (13, "a58cf69f72a64612195b66f941ff6a0d05fad7606955600917fb469a772c76c8"),
    "export": (15, "6a1c260710a88e9a72467b88301954acdc233ad90345ec094bc4a143cab4fbab"),
    "reduce": (6, "6196f77a300e9443e94485786cacae2ba3f5eee606a863d4b32ad577866ac854"),
    "reduce --emit dot": (2, "6d352b4523d9f54d60cdc495388c4f35b481df277abd66da4db1a77a23241fab"),
    "sequence": (60, "a340e1c2d3c0384bcfc394855a63b140f805fab11f0802e70d5816a85d356be4"),
    "simulate": (150, "ef56e9a04505f9eb5a114a7c66077a5e85088813c82fdafb3c960e15548fe7b6"),
    "simulate --emit csv": (
        45, "cbf1af21a5697e8d69796a797cc4c1c45ce5eb0443068a7710c9714d66f23dd4"
    ),
    "verify-cert": (15, "0d90f8f6b5c48ae2e39d03e026b8a31c219f72b2253f7b2f116c96b77c47fedd"),
    "total": (589, "44a9f6ed0e69ddd9b4158056261434c4c18bf3ab31a1aa5b3bfef78be9d0a863"),
}


def test_total_digest_is_pinned():
    # One dict compare: pytest's diff lists exactly the groups that moved.
    assert golden_cli.digests() == PINNED
