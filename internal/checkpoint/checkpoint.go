// Package checkpoint persists consistent engine snapshots so long random
// walk jobs can survive crashes. The engine (internal/core) decides *when*
// a cut is consistent — at the superstep barrier, where no messages are in
// flight — and *what* goes into each rank's segment blob; this package owns
// the on-disk format and its integrity story:
//
//	<dir>/ckpt-<iteration>/rank-NNNNN.seg   one opaque blob per rank
//	<dir>/ckpt-<iteration>/MANIFEST         versioned, checksummed index
//
// Writes are atomic: segments accumulate in a hidden staging directory,
// the manifest is written last (itself via temp file + rename), and the
// staging directory is renamed into place only then. A crash at any point
// leaves either a complete checkpoint or ignorable debris, never a torn
// one. Load walks checkpoints newest-first and returns the first whose
// manifest and every segment verify (size and CRC-64), so corrupted or
// truncated checkpoints are skipped in favor of the previous complete one.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"knightking/internal/core"
)

const (
	manifestName  = "MANIFEST"
	manifestMagic = "KKCKPT1\n"
	// Version is the manifest format version.
	Version = 1

	ckptPrefix    = "ckpt-"
	stagingPrefix = ".staging-"
	segPattern    = "rank-%05d.seg"

	// manifestFixedLen is the manifest length before the algorithm name and
	// segment table: magic, version, iteration, seed, numWalkers,
	// numVertices, algLen, numRanks.
	manifestFixedLen = 8 + 4 + 8 + 8 + 8 + 8 + 2 + 4
	// maxAlgNameLen bounds the algorithm-name field against corrupt input.
	maxAlgNameLen = 1024
)

// crcTable is the CRC-64 (ECMA) table used for both segments and the
// manifest's self-checksum.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Meta identifies the run a checkpoint belongs to, letting resume fail
// fast on obvious mismatches before the engine's deeper validation.
type Meta struct {
	Seed        uint64
	NumWalkers  uint64
	NumVertices uint64
	Algorithm   string
}

// Manifest indexes one committed checkpoint.
type Manifest struct {
	Iteration int
	Meta      Meta
	Segments  []core.SegmentInfo
}

// Store writes checkpoints under a directory and implements
// core.CheckpointSink. Safe for concurrent WriteSegment calls from
// different ranks of one process; Commit is called by rank 0 only.
type Store struct {
	dir   string
	every int
	meta  Meta

	// Retain is how many committed checkpoints to keep; older ones are
	// pruned at commit. Must be >= 2 so a crash during (or corruption of)
	// the newest checkpoint can still fall back to the previous one.
	Retain int
}

// NewStore creates (if needed) the checkpoint directory and returns a
// store snapshotting every `every` supersteps.
func NewStore(dir string, every int, meta Meta) (*Store, error) {
	if every <= 0 {
		return nil, fmt.Errorf("checkpoint: interval %d must be >= 1", every)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir, every: every, meta: meta, Retain: 2}, nil
}

// Interval returns the snapshot period in supersteps.
func (s *Store) Interval() int { return s.every }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func stagingDir(dir string, iteration int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%09d", stagingPrefix, iteration))
}

func ckptDir(dir string, iteration int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%09d", ckptPrefix, iteration))
}

// WriteSegment durably stores one rank's blob in the staging directory for
// the given superstep, fsyncing before rename so a committed manifest never
// references a segment the filesystem could lose.
func (s *Store) WriteSegment(iteration, rank int, blob []byte) (core.SegmentInfo, error) {
	info := core.SegmentInfo{Rank: rank, Size: int64(len(blob)), CRC: crc64.Checksum(blob, crcTable)}
	staging := stagingDir(s.dir, iteration)
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return info, fmt.Errorf("checkpoint: %w", err)
	}
	path := filepath.Join(staging, fmt.Sprintf(segPattern, rank))
	if err := writeFileSync(path, blob); err != nil {
		return info, fmt.Errorf("checkpoint: segment rank %d: %w", rank, err)
	}
	return info, nil
}

// Commit writes the manifest into the staging directory and renames the
// whole directory into place, making the checkpoint visible atomically.
// Older checkpoints beyond Retain are pruned afterwards.
func (s *Store) Commit(iteration int, segments []core.SegmentInfo) error {
	for i, seg := range segments {
		if seg.Rank != i {
			return fmt.Errorf("checkpoint: commit segments not sorted by rank")
		}
	}
	m := &Manifest{Iteration: iteration, Meta: s.meta, Segments: segments}
	staging := stagingDir(s.dir, iteration)
	if err := writeFileSync(filepath.Join(staging, manifestName), m.encode()); err != nil {
		return fmt.Errorf("checkpoint: manifest: %w", err)
	}
	final := ckptDir(s.dir, iteration)
	if err := os.RemoveAll(final); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(staging, final); err != nil {
		return fmt.Errorf("checkpoint: commit rename: %w", err)
	}
	s.prune(iteration)
	return nil
}

// prune removes committed checkpoints beyond Retain and any stale staging
// debris from earlier supersteps. Best-effort: pruning failures never fail
// a commit.
func (s *Store) prune(iteration int) {
	retain := s.Retain
	if retain < 1 {
		retain = 1
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	var committed []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if it, ok := parseIterDir(e.Name(), ckptPrefix); ok {
			committed = append(committed, it)
		}
		if it, ok := parseIterDir(e.Name(), stagingPrefix); ok && it < iteration {
			_ = os.RemoveAll(filepath.Join(s.dir, e.Name())) // best-effort prune of abandoned staging
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(committed)))
	for _, it := range committed[min(retain, len(committed)):] {
		_ = os.RemoveAll(ckptDir(s.dir, it)) // best-effort retention prune
	}
}

// parseIterDir extracts the iteration from a "<prefix>NNNNNNNNN" name.
func parseIterDir(name, prefix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	it, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
	if err != nil || it <= 0 {
		return 0, false
	}
	return it, true
}

// encode serializes the manifest:
//
//	magic "KKCKPT1\n" | version u32 | iteration u64
//	seed u64 | numWalkers u64 | numVertices u64
//	algLen u16 | algorithm bytes
//	numRanks u32 | numRanks × (size u64, crc u64)
//	crc64 of everything above, u64
func (m *Manifest) encode() []byte {
	alg := m.Meta.Algorithm
	if len(alg) > maxAlgNameLen {
		alg = alg[:maxAlgNameLen]
	}
	buf := make([]byte, 0, manifestFixedLen+len(alg)+16*len(m.Segments)+8)
	buf = append(buf, manifestMagic...)
	buf = appendU32(buf, Version)
	buf = appendU64(buf, uint64(m.Iteration))
	buf = appendU64(buf, m.Meta.Seed)
	buf = appendU64(buf, m.Meta.NumWalkers)
	buf = appendU64(buf, m.Meta.NumVertices)
	buf = appendU16(buf, uint16(len(alg)))
	buf = append(buf, alg...)
	buf = appendU32(buf, uint32(len(m.Segments)))
	for _, seg := range m.Segments {
		buf = appendU64(buf, uint64(seg.Size))
		buf = appendU64(buf, seg.CRC)
	}
	return appendU64(buf, crc64.Checksum(buf, crcTable))
}

// ReadManifest decodes and verifies a manifest. It never panics on
// arbitrary input (fuzzed in FuzzReadManifest) and rejects any structural
// damage via the trailing checksum.
func ReadManifest(data []byte) (*Manifest, error) {
	if len(data) < manifestFixedLen+8 {
		return nil, fmt.Errorf("checkpoint: manifest truncated (%d bytes)", len(data))
	}
	if string(data[:8]) != manifestMagic {
		return nil, fmt.Errorf("checkpoint: bad manifest magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported manifest version %d", v)
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if crc64.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("checkpoint: manifest checksum mismatch")
	}
	m := &Manifest{
		Iteration: int(binary.LittleEndian.Uint64(data[12:])),
		Meta: Meta{
			Seed:        binary.LittleEndian.Uint64(data[20:]),
			NumWalkers:  binary.LittleEndian.Uint64(data[28:]),
			NumVertices: binary.LittleEndian.Uint64(data[36:]),
		},
	}
	if m.Iteration <= 0 {
		return nil, fmt.Errorf("checkpoint: manifest iteration %d out of range", m.Iteration)
	}
	algLen := int(binary.LittleEndian.Uint16(data[44:]))
	rest := data[46 : len(data)-8]
	if algLen > maxAlgNameLen || len(rest) < algLen+4 {
		return nil, fmt.Errorf("checkpoint: manifest algorithm name overruns")
	}
	m.Meta.Algorithm = string(rest[:algLen])
	rest = rest[algLen:]
	numRanks := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if numRanks <= 0 || len(rest) != 16*numRanks {
		return nil, fmt.Errorf("checkpoint: manifest has %d ranks but %d table bytes", numRanks, len(rest))
	}
	m.Segments = make([]core.SegmentInfo, numRanks)
	for i := range m.Segments {
		m.Segments[i] = core.SegmentInfo{
			Rank: i,
			Size: int64(binary.LittleEndian.Uint64(rest[16*i:])),
			CRC:  binary.LittleEndian.Uint64(rest[16*i+8:]),
		}
		if m.Segments[i].Size < 0 {
			return nil, fmt.Errorf("checkpoint: manifest segment %d has negative size", i)
		}
	}
	return m, nil
}

// Checkpoint is one fully validated checkpoint loaded into memory.
type Checkpoint struct {
	Iteration int
	Meta      Meta
	// Segments holds each rank's verified snapshot blob, indexed by rank.
	Segments [][]byte
}

// RestoreState adapts the checkpoint for core.Config.Restore.
func (c *Checkpoint) RestoreState() *core.RestoreState {
	return &core.RestoreState{Iteration: c.Iteration, Segments: c.Segments}
}

// ErrNone is wrapped by Load and LoadRank when the directory holds no
// committed checkpoints at all — a fresh start, as opposed to checkpoints
// that exist but fail validation. Callers that treat "nothing to resume"
// as a normal case (a kkrank worker told to resume before the first
// checkpoint of a job has committed) match it with errors.Is.
var ErrNone = errors.New("checkpoint: none found")

// Load returns the newest complete, uncorrupted checkpoint under dir.
// Checkpoints whose manifest or any segment fails validation (bad magic or
// checksum, wrong size, missing file) are skipped in favor of the previous
// one; the returned error lists every rejection when none survive.
func Load(dir string) (*Checkpoint, error) { return load(dir, -1) }

// LoadRank is Load restricted to one rank's segment: the newest committed
// checkpoint is located, its manifest verified, and only segment `rank` is
// read and CRC-checked. The returned Checkpoint's Segments slice has the
// manifest's full rank count with only entry `rank` populated — exactly
// the shape core.RunNode's RestoreState contract asks of a multi-process
// rank, without paying |cluster| × segment I/O on every worker.
//
// This is the re-handout convention for coordinated failover: the
// coordinator names a shared checkpoint directory in the job spec, each
// (re)assigned worker calls LoadRank(dir, itsRank), and ready agreement on
// the loaded iteration is checked centrally before the restart barrier.
// A committed manifest implies every segment was durable (Commit runs
// strictly after all ranks' fsync+rename), so skipping the other ranks'
// files sacrifices no safety beyond what their own LoadRank verifies.
func LoadRank(dir string, rank int) (*Checkpoint, error) {
	if rank < 0 {
		return nil, fmt.Errorf("checkpoint: negative rank %d", rank)
	}
	return load(dir, rank)
}

// load is Load (rank < 0) and LoadRank.
func load(dir string, rank int) (*Checkpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var iters []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if it, ok := parseIterDir(e.Name(), ckptPrefix); ok {
			iters = append(iters, it)
		}
	}
	if len(iters) == 0 {
		return nil, fmt.Errorf("%w under %s", ErrNone, dir)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(iters)))
	var rejections []string
	for _, it := range iters {
		c, err := loadOne(ckptDir(dir, it), it, rank)
		if err == nil {
			return c, nil
		}
		rejections = append(rejections, err.Error())
	}
	forRank := ""
	if rank >= 0 {
		forRank = fmt.Sprintf(" for rank %d", rank)
	}
	return nil, fmt.Errorf("checkpoint: no complete checkpoint%s under %s:\n  %s",
		forRank, dir, strings.Join(rejections, "\n  "))
}

// loadOne reads and verifies one checkpoint directory: its manifest plus
// every segment, or only rank's when rank >= 0.
func loadOne(path string, iteration, rank int) (*Checkpoint, error) {
	raw, err := os.ReadFile(filepath.Join(path, manifestName))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m, err := ReadManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.Iteration != iteration {
		return nil, fmt.Errorf("%s: manifest is for superstep %d", path, m.Iteration)
	}
	if rank >= len(m.Segments) {
		return nil, fmt.Errorf("%s: rank %d outside the manifest's %d ranks", path, rank, len(m.Segments))
	}
	c := &Checkpoint{Iteration: m.Iteration, Meta: m.Meta, Segments: make([][]byte, len(m.Segments))}
	for r, seg := range m.Segments {
		if rank >= 0 && r != rank {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(path, fmt.Sprintf(segPattern, r)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if int64(len(blob)) != seg.Size {
			return nil, fmt.Errorf("%s: segment %d is %d bytes, manifest says %d (torn write?)",
				path, r, len(blob), seg.Size)
		}
		if crc64.Checksum(blob, crcTable) != seg.CRC {
			return nil, fmt.Errorf("%s: segment %d checksum mismatch", path, r)
		}
		c.Segments[r] = blob
	}
	return c, nil
}

// Validate checks a loaded checkpoint against the run the caller is about
// to resume, failing fast with a descriptive error on mismatch. The engine
// re-validates the deeper invariants (partition ownership, walker bounds).
func (c *Checkpoint) Validate(meta Meta) error {
	switch {
	case c.Meta.Algorithm != meta.Algorithm:
		return fmt.Errorf("checkpoint: is for algorithm %q, run uses %q", c.Meta.Algorithm, meta.Algorithm)
	case c.Meta.Seed != meta.Seed:
		return fmt.Errorf("checkpoint: was taken with seed %d, run uses %d", c.Meta.Seed, meta.Seed)
	case c.Meta.NumWalkers != meta.NumWalkers:
		return fmt.Errorf("checkpoint: has %d walkers, run has %d", c.Meta.NumWalkers, meta.NumWalkers)
	case c.Meta.NumVertices != meta.NumVertices:
		return fmt.Errorf("checkpoint: graph had %d vertices, run's has %d", c.Meta.NumVertices, meta.NumVertices)
	}
	return nil
}

// writeFileSync writes data to path atomically (temp file, fsync, rename).
func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func appendU16(buf []byte, v uint16) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return append(buf, b[:]...)
}

func appendU32(buf []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(buf, b[:]...)
}

func appendU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
