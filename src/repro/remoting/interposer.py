"""The frontend interposer (pipeline layer 1, paper Fig. 3).

The interposer library is the half of the split driver that lives inside
the application's process: it captures CUDA runtime calls and charges
their frontend-side costs — marshalling, the hop to the backend, bulk
payload shipping, and the Memory Operation Translator's pinned-staging
copy.

It also owns the session's channel to its backend: the
:class:`~repro.remoting.rpc.RpcCostModel` prices each hop over the
cluster :class:`~repro.cluster.network.Network`, at shared-memory-queue
costs when the bound GPU is local to the frontend's node and GigE costs
otherwise.  ``local`` flips at bind time, once the workload balancer has
picked the device.  Link-degradation faults mutate the shared network in
place, so every interposer crossing the degraded link sees the higher
latency / lower bandwidth at once.

Each helper returns a sim :class:`~repro.sim.Event` (a timeout) that the
session's call generators ``yield``, so the cost model stays in one place
per layer instead of scattered ``env.timeout(rpc...)`` calls.  The
staging helper is the frontend layer's single observability hook: it
records the ``staging`` span when the copy actually took time.
"""

from __future__ import annotations

from repro.telemetry.categories import CAT_STAGING
from repro.sim import Event
from repro.cluster.network import Network
from repro.remoting.rpc import RpcCostModel


class FrontendInterposer:
    """CUDA-call capture + RPC costs for one session's channel."""

    __slots__ = ("session", "network", "rpc", "local", "_staging_meta")

    def __init__(self, session, network: Network, rpc: RpcCostModel) -> None:
        self.session = session
        self.network = network
        self.rpc = rpc
        #: Whether the bound GPU shares the frontend's node.  True until
        #: bind resolves the placement (the pre-bind interception hop is
        #: always node-local).
        self.local = True
        #: nbytes -> (staging span name, shared args dict), built lazily.
        self._staging_meta: dict = {}

    # -- control-path hops --------------------------------------------------

    def request(self, payload_bytes: int = 128) -> Event:
        """The frontend→backend hop of one intercepted call."""
        return self.session.env.timeout(
            self.rpc.request_delay(self.network, self.local, payload_bytes)
        )

    def response(self) -> Event:
        """The backend→frontend hop carrying the call's return."""
        return self.session.env.timeout(self.rpc.response_delay(self.network, self.local))

    def roundtrip(self) -> Event:
        """Both hops of a blocking call as one delay (no backend work)."""
        return self.session.env.timeout(self.rpc.roundtrip_delay(self.network, self.local))

    def marshal(self) -> Event:
        """Marshalling only: a fire-and-forget call returns to the app as
        soon as its parameters are packed."""
        return self.session.env.timeout(self.rpc.marshal_s)

    # -- data path ----------------------------------------------------------

    def ship(self, nbytes: int) -> Event:
        """Bulk memcpy payload crossing the channel (either direction)."""
        return self.session.env.timeout(
            self.rpc.bulk_data_delay(self.network, self.local, nbytes)
        )

    def stage(self, nbytes: int):
        """The MOT's host copy into pinned staging memory (a generator).

        This is the frontend layer's one telemetry hook: when the copy
        took sim time, it is recorded as a ``staging`` span under the
        owning request's root span.
        """
        sess = self.session
        env = sess.env
        staged_at = env.now
        yield env.timeout(self.rpc.staging_delay(nbytes))
        tel = env.telemetry
        if tel.enabled and env.now > staged_at:
            meta = self._staging_meta.get(nbytes)
            if meta is None:
                meta = self._staging_meta[nbytes] = (
                    f"staging:{sess.app_name}",
                    {"app": sess.app_name, "bytes": nbytes},
                )
            tel.start_span(
                meta[0], CAT_STAGING, sess._obs_track,
                sess.root_span, meta[1], staged_at,
            ).finish(env.now)

    def __repr__(self) -> str:
        return f"<FrontendInterposer app={self.session.app_name!r} local={self.local}>"


__all__ = ["FrontendInterposer"]
