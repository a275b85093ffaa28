"""Horizontal scale for the CORAL server: a consistent-hash router in
front of N supervised worker processes (docs/SHARDING.md).

::

    from repro.sharding import ShardRouter, WorkerPool

    pool = WorkerPool(4, data_dir="/var/coral").start()
    router = ShardRouter(pool, port=4242, shard_map="shards.map").start()
    # any RemoteSession / shell / script now talks to router.address,
    # speaking the ordinary wire protocol

Or from the CLI: ``python -m repro.server --port 4242 --workers 4``.
"""

from .hashring import HashRing, ShardMap, partition_key, stable_hash
from .pool import WorkerHandle, WorkerPool
from .router import ShardRouter

__all__ = [
    "HashRing",
    "ShardMap",
    "ShardRouter",
    "WorkerHandle",
    "WorkerPool",
    "partition_key",
    "stable_hash",
]
