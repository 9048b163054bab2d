"""CRC16 hash slots and the cluster slot map.

Redis Cluster routes every key to one of 16384 slots via
``CRC16(key) mod 16384`` (CRC16-CCITT / XMODEM, polynomial 0x1021), with
the *hash tag* rule: if the key contains ``{...}`` with a non-empty
content, only that content is hashed, so ``{user1000}.following`` and
``{user1000}.followers`` land on the same slot and stay multi-key
addressable.  The slot map assigns contiguous slot ranges to shards, the
way ``redis-cli --cluster create`` splits a fresh cluster.
"""

from __future__ import annotations

from binascii import crc_hqx
from dataclasses import dataclass

#: Redis Cluster's fixed key space.
NUM_SLOTS = 16384

#: First client-visible port, shard ``i`` listens on ``BASE_PORT + i``.
BASE_PORT = 7000

#: All shards live on the one simulated machine.
HOST = "127.0.0.1"


def crc16(data: bytes) -> int:
    """CRC16-CCITT (XMODEM), the checksum Redis Cluster specifies.

    ``binascii.crc_hqx`` with a zero seed is exactly this CRC, in C.
    """
    return crc_hqx(data, 0)


def hashable_part(key: bytes) -> bytes:
    """Apply the hash-tag rule: hash only ``{tag}`` when present.

    The tag is the content between the *first* ``{`` and the first
    ``}`` after it; an empty tag (``{}``) falls back to the whole key,
    exactly as the Redis Cluster specification describes.
    """
    open_brace = key.find(b"{")
    if open_brace == -1:
        return key
    close_brace = key.find(b"}", open_brace + 1)
    if close_brace == -1 or close_brace == open_brace + 1:
        return key
    return key[open_brace + 1 : close_brace]


def key_slot(key) -> int:
    """The hash slot of one key (str or bytes)."""
    if isinstance(key, str):
        key = key.encode()
    return crc16(hashable_part(bytes(key))) % NUM_SLOTS


#: Which argument positions are keys, per command.  ``"first"`` — only
#: args[0]; ``"all"`` — every argument; ``"every-other"`` — args[0],
#: args[2], ... (the MSET key/value interleave).
COMMAND_KEY_SPEC: dict[bytes, str] = {
    b"SET": "first",
    b"GET": "first",
    b"SETNX": "first",
    b"GETSET": "first",
    b"APPEND": "first",
    b"STRLEN": "first",
    b"INCR": "first",
    b"INCRBY": "first",
    b"DECR": "first",
    b"DECRBY": "first",
    b"EXPIRE": "first",
    b"PEXPIRE": "first",
    b"TTL": "first",
    b"PTTL": "first",
    b"PERSIST": "first",
    b"TYPE": "first",
    b"DUMP": "first",
    b"RESTORE": "first",
    b"DEL": "all",
    b"UNLINK": "all",
    b"EXISTS": "all",
    b"MGET": "all",
    b"MSET": "every-other",
}

#: Commands known to carry *no* key: they execute on whichever shard
#: (or proxy) receives them.  Everything outside this set and the key
#: spec is an *unknown* command — strict routers refuse to guess.
KEYLESS_COMMANDS: frozenset[bytes] = frozenset(
    {
        b"PING", b"ECHO", b"DBSIZE", b"FLUSHALL", b"BGSAVE",
        b"BGREWRITEAOF", b"LASTSAVE", b"SAVE", b"INFO", b"LATENCY",
        b"CLUSTER", b"ASKING", b"COMMAND", b"CLIENT", b"CONFIG",
        b"HELLO", b"AUTH", b"SELECT", b"RESET", b"QUIT", b"WAIT",
        b"SHUTDOWN", b"REPLCONF", b"PSYNC", b"REPLICAOF", b"SLAVEOF",
        b"DEBUG", b"TENANT", b"PROXY",
    }
)


def command_keys(name: bytes, args, strict: bool = False) -> list[bytes]:
    """The key arguments of one parsed command (empty if keyless).

    ``strict=True`` is the *client-side* contract: a command that is in
    neither :data:`COMMAND_KEY_SPEC` nor :data:`KEYLESS_COMMANDS` but
    carries arguments raises :class:`~repro.errors.
    UnroutableCommandError` instead of silently routing as keyless —
    the shard-0 mis-route this guards against loses writes once slots
    move.  Servers keep the lenient default and answer unknown commands
    with the usual ``ERR unknown command``.
    """
    upper = name.upper()
    spec = COMMAND_KEY_SPEC.get(upper)
    if spec is None:
        if strict and args and upper not in KEYLESS_COMMANDS:
            from repro.errors import UnroutableCommandError

            shown = upper.decode("utf-8", errors="backslashreplace")
            raise UnroutableCommandError(
                f"cannot route {shown!r}: not in COMMAND_KEY_SPEC and not "
                "a known keyless command; add a key spec before routing it",
                command=bytes(upper),
            )
        return []
    if not args:
        return []
    if spec == "first":
        return [bytes(args[0])]
    if spec == "every-other":
        return [bytes(a) for a in args[0::2]]
    return [bytes(a) for a in args]


@dataclass(frozen=True)
class SlotRange:
    """One contiguous run of slots owned by a shard (ends inclusive)."""

    start: int
    end: int
    shard_id: int

    def __contains__(self, slot: int) -> bool:
        return self.start <= slot <= self.end


class SlotMap:
    """Contiguous even split of the 16384 slots over N shards."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1 or n_shards > NUM_SLOTS:
            raise ValueError(f"need 1..{NUM_SLOTS} shards, got {n_shards}")
        self.n_shards = n_shards
        self.ranges: list[SlotRange] = []
        per_shard, remainder = divmod(NUM_SLOTS, n_shards)
        start = 0
        for shard_id in range(n_shards):
            width = per_shard + (1 if shard_id < remainder else 0)
            self.ranges.append(SlotRange(start, start + width - 1, shard_id))
            start += width
        #: Dense slot -> shard lookup (routing is on every command).
        self._owner = [0] * NUM_SLOTS
        for rng in self.ranges:
            for slot in range(rng.start, rng.end + 1):
                self._owner[slot] = rng.shard_id
        #: Per-shard address overrides (set by failover promotion when a
        #: replica at a non-default address takes over the shard).
        self._addresses: dict[int, str] = {}
        #: Reverse lookup for overridden addresses.
        self._address_shards: dict[str, int] = {}
        #: Bumped on every topology repair (promotion); clients compare
        #: epochs to notice their cached view went stale.
        self.epoch = 0

    def shard_of_slot(self, slot: int) -> int:
        """Owner shard of one slot."""
        return self._owner[slot]

    def shard_of_key(self, key) -> int:
        """Owner shard of one key."""
        return self._owner[key_slot(key)]

    def range_of(self, shard_id: int) -> SlotRange:
        """The *initial* contiguous slot range a shard was created with.

        Resharding moves individual slots; use :meth:`slot_ranges` for
        the live (post-migration) view.
        """
        return self.ranges[shard_id]

    def set_slot_owner(self, slot: int, shard_id: int) -> None:
        """Reassign one slot (``CLUSTER SETSLOT <slot> NODE ...``).

        The migration finalization step: after the last key of a slot
        has moved, both sides point the shared map at the target and
        the epoch bumps so cached client views can detect staleness.
        """
        if not 0 <= slot < NUM_SLOTS:
            raise ValueError(f"slot {slot} outside 0..{NUM_SLOTS - 1}")
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"no shard {shard_id} in this map")
        if self._owner[slot] != shard_id:
            self._owner[slot] = shard_id
            self.epoch += 1

    def slot_ranges(self) -> list[SlotRange]:
        """The live ownership as contiguous runs (``CLUSTER SLOTS``).

        Starts as one run per shard; after a reshard the runs reflect
        whatever the migrations produced.
        """
        runs: list[SlotRange] = []
        start = 0
        for slot in range(1, NUM_SLOTS + 1):
            if slot == NUM_SLOTS or self._owner[slot] != self._owner[start]:
                runs.append(SlotRange(start, slot - 1, self._owner[start]))
                start = slot
        return runs

    def slots_of(self, shard_id: int) -> list[int]:
        """Every slot a shard currently owns (migration planning)."""
        return [
            slot for slot, owner in enumerate(self._owner)
            if owner == shard_id
        ]

    def address_of(self, shard_id: int) -> str:
        """``host:port`` of a shard, as written into MOVED replies."""
        override = self._addresses.get(shard_id)
        if override is not None:
            return override
        return f"{HOST}:{BASE_PORT + shard_id}"

    def set_address(self, shard_id: int, address: str) -> None:
        """Repoint one shard at a new serving node (failover repair).

        After a replica promotion the shard id keeps its slots but is
        served from the promoted node's address; MOVED replies and
        ``CLUSTER SLOTS`` reflect the repair immediately, and the map
        epoch bumps so cached client views can detect staleness.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"no shard {shard_id} in this map")
        old = self._addresses.pop(shard_id, None)
        if old is not None:
            self._address_shards.pop(old, None)
        self._addresses[shard_id] = address
        self._address_shards[address] = shard_id
        self.epoch += 1

    def shard_of_address(self, address: str) -> int:
        """Inverse of :meth:`address_of` (how clients follow MOVED)."""
        override = self._address_shards.get(address)
        if override is not None:
            return override
        host, _, port = address.rpartition(":")
        shard_id = int(port) - BASE_PORT
        if (
            host != HOST
            or not 0 <= shard_id < self.n_shards
            or shard_id in self._addresses
        ):
            raise ValueError(f"no shard listens on {address!r}")
        return shard_id

    def moved_error(self, slot: int) -> str:
        """The redirect message for a slot this shard does not own."""
        return f"MOVED {slot} {self.address_of(self._owner[slot])}"
