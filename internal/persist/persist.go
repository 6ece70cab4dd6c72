// Package persist is the durability layer of the streaming engine: a
// versioned binary snapshot codec for the full engine state and an
// epoch-batch write-ahead log, so a restarted process recovers to the
// exact pre-crash state instead of re-centralizing and re-clustering
// from scratch — the expensive path the whole incremental-maintenance
// design (§6) exists to avoid.
//
// # Snapshot format
//
//	+----------------------+
//	| magic  "ELNKSNAP"    |  8 bytes
//	| version uint32       |  little-endian (currently 2)
//	+----------------------+
//	| section              |  repeated
//	|   tag     uint8      |
//	|   length  uint32     |  payload bytes
//	|   payload [length]   |
//	|   crc32   uint32     |  IEEE CRC over tag, length and payload
//	+----------------------+
//	| end tag 0xFF, len 0  |
//	+----------------------+
//
// Every component of the engine state (AR models, features, maintainer,
// index, telemetry) is its own length-prefixed, CRC-checked section, so
// future versions can append sections (or extend a section's payload)
// without breaking old decoders: unknown tags are skipped, and decoders
// stop reading a known section at the fields they understand. The
// decoder never panics on malformed input — truncations, bit flips and
// wrong versions all surface as errors (FuzzSnapshotDecode pins this).
//
// # WAL
//
// The write-ahead log journals ingested batches between snapshots.
// Segments are append-only files rotated by size; each record is a
// length-prefixed, CRC-trailed frame carrying the batch's engine
// sequence number. Recovery = load the latest valid snapshot, then
// replay the WAL records with a later sequence number. A truncated or
// torn final record — the normal signature of a crash mid-append — ends
// replay cleanly at the last intact record.
package persist

import (
	"errors"
	"fmt"
)

const (
	// snapMagic opens every snapshot file.
	snapMagic = "ELNKSNAP"
	// SnapshotVersion is the current snapshot format version. Decoders
	// reject anything newer.
	SnapshotVersion = 2

	// walMagic opens every WAL segment.
	walMagic = "ELNKWAL1"
	// WALVersion is the current WAL segment format version.
	WALVersion = 1
)

// Section tags of the snapshot format. New tags are additive.
const (
	secMeta    = 1 // counts, epoch/seq, config fingerprint
	secModels  = 2 // per-node AR/RLS state
	secFeats   = 3 // engine feature vectors + bootstrap coverage
	secMaint   = 4 // slack-Δ maintainer state
	secIndex   = 5 // the index's clustering: roots and members per cluster
	secTelem   = 6 // accumulated stats/counters
	secEnd     = 0xFF
	maxSection = 1 << 30 // defensive cap on one section's payload
)

// ErrCorrupt tags every decode failure caused by the bytes themselves:
// bad magic, CRC mismatches, truncations, impossible lengths. Callers
// match it with errors.Is to distinguish a damaged file from I/O errors.
var ErrCorrupt = errors.New("persist: corrupt data")

// ErrVersion tags decode failures caused by a format version newer than
// this build understands.
var ErrVersion = errors.New("persist: unsupported format version")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}
