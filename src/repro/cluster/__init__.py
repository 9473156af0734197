"""SCALE-OUT: the sharded PROFSTORE cluster.

One :class:`~repro.cluster.router.ClusterRouter` daemon fronts N
:class:`~repro.store.server.StoreServer` shard processes (spawned and
supervised by :class:`~repro.cluster.supervisor.ShardSupervisor`).
Blobs are placed by consistent hashing on a replicated ring
(:mod:`repro.cluster.ring`), written to ``replicas`` shards, and read
back quorum-less with digest verification and read-repair.  The
``repro-cluster`` CLI (:mod:`repro.cluster.cli`) boots, inspects,
rebalances, drains, and load-tests a cluster.
"""
