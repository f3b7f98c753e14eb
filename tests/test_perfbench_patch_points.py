"""perfbench sees into the package only by replacing module attributes by name.

A refactor that unbinds one of those names would otherwise fail only in the
traced benchmark run; here every patch point is installed and removed again.
"""

import socket
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_perfbench_patch_point_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # tail_server edits sys.path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import offline
    import tail_server
    from tracing import Tracer

    recv, sendall = socket.socket.recv, socket.socket.sendall
    client, server = Tracer("client"), tail_server._ServerTrace()
    try:
        offline._patch_offline(client)  # patch_client's names, then the CLI's
        server.install()
        patched = list(client._patches) + list(server.tracer._patches)
        assert (len(client._patches), len(server.tracer._patches)) == (21, 7)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        server.tracer.unpatch_all()
        client.unpatch_all()
    # session.decode_message is patched on both sides: the first patch saw
    # the original
    originals = {}
    for owner, attr, original in patched:
        originals.setdefault((owner, attr), original)
    assert [key for key, original in originals.items() if getattr(*key) is not original] == []
    assert (socket.socket.recv, socket.socket.sendall) == (recv, sendall)
