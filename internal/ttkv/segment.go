package ttkv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Segmented-log errors.
var (
	// ErrSegCorrupt marks damage the segment store cannot repair: a sealed
	// segment whose contents disagree with the index (record count, byte
	// length, or checksum), a segment file the index does not account for,
	// or an unreadable index. Sealed segments are immutable after the index
	// commit, so — unlike the active tail — damage in one is never a crash
	// artifact and is not silently truncated away.
	ErrSegCorrupt = errors.New("ttkv: corrupt segment store")
	// ErrSegRange is returned by RangeRecords for a sequence range the
	// segment files do not (yet) cover — e.g. the tail of the range is
	// still in the appender's buffer. Callers fall back to
	// Store.ReplSnapshot.
	ErrSegRange = errors.New("ttkv: sequence range not covered by segments")
)

const (
	segMagic   = "OCSG"
	segVersion = 1
	// segHeaderLen is the magic, a little-endian uint16 version, and the
	// little-endian uint64 base sequence number.
	segHeaderLen = len(segMagic) + 2 + 8

	// segIndexName is the manifest file naming every sealed segment of the
	// current generation. Its atomic rename is the commit point for both
	// sealing and compaction.
	segIndexName  = "segments.idx"
	segIndexMagic = "ocasta-segments v1"

	// DefaultSegmentBytes is the roll threshold when SegmentedConfig does
	// not choose one: large enough that the per-segment index stays tiny,
	// small enough that startup replay parallelizes and compaction can
	// retire history segment-by-segment.
	DefaultSegmentBytes = 64 << 20
)

// segCRCTable is the Castagnoli table used for segment record checksums
// and the index's self-check line.
var segCRCTable = crc32.MakeTable(crc32.Castagnoli)

// segMeta describes one sealed segment as recorded in the index: records
// carry sequence numbers base+1 .. base+records, the file is exactly
// bytes long (header included), and crc covers every record byte after
// the header.
type segMeta struct {
	base    uint64
	records uint64
	bytes   int64
	crc     uint32
}

// segName returns the file name for a segment: the generation ties every
// file to one index epoch (compaction bumps it, so renumbered segments
// never collide with the files they replace), and the base orders
// segments by sequence coverage lexicographically.
func segName(gen, base uint64) string {
	return fmt.Sprintf("seg-%08d-%020d.ock", gen, base)
}

// parseSegName inverts segName.
func parseSegName(name string) (gen, base uint64, ok bool) {
	rest, found := strings.CutPrefix(name, "seg-")
	if !found {
		return 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, ".ock")
	if !found {
		return 0, 0, false
	}
	gs, bs, found := strings.Cut(rest, "-")
	if !found || len(gs) != 8 || len(bs) != 20 {
		return 0, 0, false
	}
	gen, err := strconv.ParseUint(gs, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	base, err = strconv.ParseUint(bs, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return gen, base, true
}

func segHeader(base uint64) []byte {
	h := make([]byte, 0, segHeaderLen)
	h = append(h, segMagic...)
	h = binary.LittleEndian.AppendUint16(h, uint16(segVersion))
	return binary.LittleEndian.AppendUint64(h, base)
}

// readSegHeader consumes exactly segHeaderLen bytes from r and returns
// the segment's base sequence number.
func readSegHeader(r io.Reader) (uint64, error) {
	hdr := make([]byte, segHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, fmt.Errorf("%w: segment header: %v", ErrSegCorrupt, err)
	}
	if string(hdr[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic", ErrSegCorrupt)
	}
	if ver := binary.LittleEndian.Uint16(hdr[len(segMagic):]); ver != segVersion {
		return 0, fmt.Errorf("%w: segment version %d", ErrSegCorrupt, ver)
	}
	return binary.LittleEndian.Uint64(hdr[len(segMagic)+2:]), nil
}

// SegmentedConfig tunes a segmented log. The zero value picks defaults.
type SegmentedConfig struct {
	// MaxSegmentBytes is the roll threshold: a batch that would land in an
	// active segment already at or past this size goes to a fresh segment
	// instead (segments therefore exceed it by at most one batch).
	// Defaults to DefaultSegmentBytes.
	MaxSegmentBytes int64
	// Parallelism caps the worker goroutines replaying sealed segments on
	// open. Defaults to GOMAXPROCS.
	Parallelism int
}

func (c SegmentedConfig) withDefaults() SegmentedConfig {
	if c.MaxSegmentBytes <= 0 {
		c.MaxSegmentBytes = DefaultSegmentBytes
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// SegmentedAOF is the store's append-only log: the AOF record stream
// split across sealed, checksummed segment files plus one active tail,
// with a manifest (segments.idx) recording each sealed segment's sequence
// range. Startup replays sealed segments in parallel (each holds an
// independent record run whose sequence numbers are derived from the
// manifest), SYNC catch-up reads a sequence range by seeking to the
// covering segments instead of scanning the whole keyspace, and
// compaction rewrites history into a fresh generation committed by one
// index swap.
//
// Sequence numbers are positional — record i of a segment based at b has
// sequence b+i — which is exactly faithful when the feeder appends in
// sequence order (a ReplLog-fed GroupCommit, the intended arrangement:
// the ReplLog mints sequence numbers under the same lock that orders
// appends). Without a ReplLog the derived numbers are simply log order.
//
// It implements LogWriter, so it plugs into a GroupCommit. Write errors
// are sticky: after one failed append the writer refuses further work,
// because a hole in the middle of the log must not be papered over by
// later successes.
//
//ocasta:durable
type SegmentedAOF struct {
	dir string
	cfg SegmentedConfig

	mu     sync.Mutex
	err    error // sticky first write/flush error
	gen    uint64
	sealed []segMeta
	active *os.File
	w      *bufio.Writer
	aBase  uint64 // active segment's base sequence number
	aRecs  uint64 // complete records in the active segment
	aBytes int64  // active file length, header included
	aCRC   uint32 // running CRC of the active segment's record bytes
}

// OpenSegmented opens (or initializes) the segment directory dir for
// appending without replaying records into a store.
func OpenSegmented(dir string, cfg SegmentedConfig) (*SegmentedAOF, error) {
	return OpenSegmentedInto(dir, nil, cfg)
}

// OpenSegmentedInto opens the segment directory dir, replays its records
// into s (pass nil to skip replay), and returns the log ready for
// appending. Sealed segments replay on cfg.Parallelism goroutines —
// their record runs are independent, and the manifest supplies each
// record's sequence number, so insertion order across segments does not
// matter — then the active tail replays sequentially, with a partial
// final record (crash mid-append) truncated away so later appends stay
// reachable. A sealed segment that disagrees with the manifest
// is ErrSegCorrupt: past the index commit those bytes were fsynced and
// immutable, so damage there is never a crash artifact.
//
// Crash leftovers are swept: *.tmp files and segments from other
// generations (an interrupted compaction) are removed. A current-
// generation segment file the manifest does not account for is
// ErrSegCorrupt.
func OpenSegmentedInto(dir string, s *Store, cfg SegmentedConfig) (*SegmentedAOF, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ttkv: creating segment dir: %w", err)
	}
	gen, sealed, found, err := readSegIndex(dir)
	if err != nil {
		return nil, err
	}
	if !found {
		// The index is first written when a segment seals, so its absence
		// is legitimate only before the first seal.
		gen = 1
	}
	activeBase := uint64(0)
	if n := len(sealed); n > 0 {
		activeBase = sealed[n-1].base + sealed[n-1].records
	}
	if err := sweepSegmentDir(dir, gen, found, sealed, activeBase); err != nil {
		return nil, err
	}
	sa := &SegmentedAOF{dir: dir, cfg: cfg, gen: gen, sealed: sealed}
	if err := sa.replaySealed(s); err != nil {
		return nil, err
	}
	if err := sa.openActive(s, activeBase); err != nil {
		return nil, err
	}
	if sa.aBytes >= cfg.MaxSegmentBytes && sa.aRecs > 0 {
		// The tail outgrew the threshold before the previous process
		// rolled (or the threshold shrank); seal it now so it stops
		// growing.
		if err := sa.rollLocked(); err != nil {
			_ = sa.active.Close() // returning the roll error; close is cleanup
			return nil, err
		}
	}
	if s != nil {
		total := sa.aBase + sa.aRecs
		s.seq.Store(total)
		s.pub.advanceTo(total)
	}
	return sa, nil
}

// sweepSegmentDir removes crash leftovers (temp files, other-generation
// segments) and rejects segment files the manifest cannot account for.
func sweepSegmentDir(dir string, gen uint64, haveIndex bool, sealed []segMeta, activeBase uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("ttkv: reading segment dir: %w", err)
	}
	sealedBases := make(map[uint64]bool, len(sealed))
	for _, m := range sealed {
		sealedBases[m.base] = true
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("ttkv: sweeping temp file: %w", err)
			}
			continue
		}
		g, b, ok := parseSegName(name)
		if !ok {
			continue // not ours (segments.idx, stray files)
		}
		if !haveIndex {
			// Before the first seal only the initial active segment may
			// exist; anything else means the index was lost.
			if g != gen || b != 0 {
				return fmt.Errorf("%w: segment %s present but no index", ErrSegCorrupt, name)
			}
			continue
		}
		if g != gen {
			// Another generation: an interrupted compaction (newer gen not
			// yet committed) or its unswept leavings (older gen). The
			// index is the commit point, so these are dead either way.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("ttkv: sweeping stale segment: %w", err)
			}
			continue
		}
		if !sealedBases[b] && b != activeBase {
			return fmt.Errorf("%w: segment %s not in index", ErrSegCorrupt, name)
		}
	}
	// Every sealed segment the index promises must exist; replay would
	// also notice, but a clear error beats an open() failure mid-replay.
	for _, m := range sealed {
		if _, err := os.Stat(filepath.Join(dir, segName(gen, m.base))); err != nil {
			return fmt.Errorf("%w: sealed segment %s missing: %v", ErrSegCorrupt, segName(gen, m.base), err)
		}
	}
	return nil
}

// replaySealed replays every sealed segment into s on a bounded worker
// pool, verifying each against its manifest entry. With s == nil it
// still verifies. Only called during open, before sa is shared.
func (sa *SegmentedAOF) replaySealed(s *Store) error {
	if len(sa.sealed) == 0 {
		return nil
	}
	workers := sa.cfg.Parallelism
	if workers > len(sa.sealed) {
		workers = len(sa.sealed)
	}
	jobs := make(chan segMeta)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range jobs {
				if err := sa.replaySegment(m, s); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for _, m := range sa.sealed {
		jobs <- m
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// replaySegment replays one sealed segment, checking the record count,
// byte length, and checksum against the manifest. Truncation surfaces as
// a count/length mismatch — a sealed segment has no repairable tail.
func (sa *SegmentedAOF) replaySegment(m segMeta, s *Store) error {
	path := filepath.Join(sa.dir, segName(sa.gen, m.base))
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("ttkv: opening segment: %w", err)
	}
	//ocasta:allow stickyerr file opened read-only; no buffered writes to lose
	defer f.Close()
	base, err := readSegHeader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if base != m.base {
		return fmt.Errorf("%w: %s: header base %d, index says %d", ErrSegCorrupt, path, base, m.base)
	}
	ord := uint64(0)
	n, valid, crc, err := scanRecords(f, func(key, value string, t time.Time, deleted bool) error {
		ord++
		if s == nil {
			return nil
		}
		return s.replayInsert(key, value, t, deleted, m.base+ord)
	})
	if err != nil {
		// Any scan or insert failure inside a sealed segment is corruption:
		// the index committed these bytes, so they must parse cleanly.
		return fmt.Errorf("%w: %s: %v", ErrSegCorrupt, path, err)
	}
	if n != m.records || int64(segHeaderLen)+valid != m.bytes || crc != m.crc {
		return fmt.Errorf("%w: %s: has %d records/%d bytes/crc %08x, index says %d/%d/%08x",
			ErrSegCorrupt, path, n, int64(segHeaderLen)+valid, crc, m.records, m.bytes, m.crc)
	}
	return nil
}

// openActive opens (or creates) the active segment at base, replays its
// records into s, repairs a crash-truncated tail, and leaves the file
// positioned for appends. Only called during open, before sa is shared.
func (sa *SegmentedAOF) openActive(s *Store, base uint64) error {
	path := filepath.Join(sa.dir, segName(sa.gen, base))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("ttkv: opening active segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // returning the stat error; close is cleanup
		return fmt.Errorf("ttkv: stat active segment: %w", err)
	}
	if st.Size() < int64(segHeaderLen) {
		// Brand new, or a crash landed mid-header: no complete record can
		// exist yet, so (re)initialize.
		if err := f.Truncate(0); err != nil {
			_ = f.Close() // returning the real error; close is cleanup
			return fmt.Errorf("ttkv: resetting active segment: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			_ = f.Close() // returning the real error; close is cleanup
			return fmt.Errorf("ttkv: seeking active segment: %w", err)
		}
		if _, err := f.Write(segHeader(base)); err != nil {
			_ = f.Close() // returning the real error; close is cleanup
			return err
		}
		if err := syncDir(sa.dir); err != nil {
			_ = f.Close() // returning the real error; close is cleanup
			return err
		}
		sa.setActive(f, base, 0, int64(segHeaderLen), 0)
		return nil
	}
	hb, err := readSegHeader(f)
	if err != nil {
		_ = f.Close() // returning the real error; close is cleanup
		return fmt.Errorf("%s: %w", path, err)
	}
	if hb != base {
		_ = f.Close() // returning the real error; close is cleanup
		return fmt.Errorf("%w: %s: header base %d, expected %d", ErrSegCorrupt, path, hb, base)
	}
	ord := uint64(0)
	n, valid, crc, err := scanRecords(f, func(key, value string, t time.Time, deleted bool) error {
		ord++
		if s == nil {
			return nil
		}
		return s.replayInsert(key, value, t, deleted, base+ord)
	})
	if err != nil {
		_ = f.Close() // returning the real error; close is cleanup
		return fmt.Errorf("%s: %w", path, err)
	}
	end := int64(segHeaderLen) + valid
	if end < st.Size() {
		if err := f.Truncate(end); err != nil {
			_ = f.Close() // returning the real error; close is cleanup
			return fmt.Errorf("ttkv: truncating damaged segment tail: %w", err)
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		_ = f.Close() // returning the real error; close is cleanup
		return fmt.Errorf("ttkv: seeking segment end: %w", err)
	}
	sa.setActive(f, base, n, end, crc)
	return nil
}

func (sa *SegmentedAOF) setActive(f *os.File, base, recs uint64, bytes int64, crc uint32) {
	sa.active = f
	sa.w = bufio.NewWriter(f)
	sa.aBase = base
	sa.aRecs = recs
	sa.aBytes = bytes
	sa.aCRC = crc
}

// rollLocked seals the active segment — flush, fsync, record it in the
// index (the commit point), — and starts a fresh active at the next
// base. Caller holds sa.mu (or has exclusive access during open).
func (sa *SegmentedAOF) rollLocked() error {
	if err := sa.w.Flush(); err != nil {
		return err
	}
	if err := sa.active.Sync(); err != nil {
		return err
	}
	sealed := append(sa.sealed, segMeta{base: sa.aBase, records: sa.aRecs, bytes: sa.aBytes, crc: sa.aCRC})
	if err := writeSegIndex(sa.dir, sa.gen, sealed); err != nil {
		return err
	}
	sa.sealed = sealed
	if err := sa.active.Close(); err != nil {
		return err
	}
	nextBase := sa.aBase + sa.aRecs
	path := filepath.Join(sa.dir, segName(sa.gen, nextBase))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ttkv: creating segment: %w", err)
	}
	if _, err := f.Write(segHeader(nextBase)); err != nil {
		_ = f.Close() // returning the write error; close is cleanup
		return err
	}
	if err := syncDir(sa.dir); err != nil {
		_ = f.Close() // returning the real error; close is cleanup
		return err
	}
	sa.setActive(f, nextBase, 0, int64(segHeaderLen), 0)
	return nil
}

// writeBatch appends pre-encoded records (implementing LogWriter),
// rolling to a fresh segment first if the active one is full. The batch
// lands in one segment whole — record count accounting is per batch, so
// splitting one across a roll would corrupt the sequence index.
func (sa *SegmentedAOF) writeBatch(encoded []byte, records int) error {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if sa.err != nil {
		return sa.err
	}
	if sa.aBytes >= sa.cfg.MaxSegmentBytes && sa.aRecs > 0 {
		if err := sa.rollLocked(); err != nil {
			sa.err = err
			return err
		}
	}
	if _, err := sa.w.Write(encoded); err != nil {
		sa.err = err
		return err
	}
	sa.aCRC = crc32.Update(sa.aCRC, segCRCTable, encoded)
	sa.aRecs += uint64(records)
	sa.aBytes += int64(len(encoded))
	return nil
}

// flushOS pushes buffered records to the OS without fsyncing
// (implementing LogWriter).
func (sa *SegmentedAOF) flushOS() error {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if sa.err != nil {
		return sa.err
	}
	if err := sa.w.Flush(); err != nil {
		sa.err = err
		return err
	}
	return nil
}

// Sync flushes buffered records and fsyncs the active segment.
func (sa *SegmentedAOF) Sync() error {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if sa.err != nil {
		return sa.err
	}
	if err := sa.w.Flush(); err != nil {
		sa.err = err
		return err
	}
	if err := sa.active.Sync(); err != nil {
		sa.err = err
		return err
	}
	return nil
}

// Close flushes and closes the active segment. Sealed segments hold no
// open handles.
func (sa *SegmentedAOF) Close() error {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if err := sa.w.Flush(); err != nil {
		_ = sa.active.Close() // the flush error is the durability verdict; close is cleanup
		return err
	}
	return sa.active.Close()
}

// SegmentedStats is a point-in-time summary of a segmented log.
type SegmentedStats struct {
	Sealed  int    // sealed segment count
	Records uint64 // total records, sealed plus active
	Bytes   int64  // total file bytes, sealed plus active
}

// Stats summarizes the log's current shape.
func (sa *SegmentedAOF) Stats() SegmentedStats {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	st := SegmentedStats{Sealed: len(sa.sealed), Records: sa.aBase + sa.aRecs, Bytes: sa.aBytes}
	for _, m := range sa.sealed {
		st.Bytes += m.bytes
	}
	return st
}

// Dir returns the segment directory.
func (sa *SegmentedAOF) Dir() string { return sa.dir }

// errStopScan is the sentinel a RangeRecords scan callback returns to
// end a segment scan early once the range is satisfied.
var errStopScan = errors.New("ttkv: stop scan")

// RangeRecords returns every record with sequence number in
// (afterSeq, upToSeq], ordered by sequence, read from the segment files —
// the O(covering segments) alternative to ReplSnapshot's full keyspace
// scan for SYNC catch-up. Like ReplSnapshot, the returned records carry
// no atomic-batch flags. Positional sequence numbering means the result
// matches the store only when the log is fed in sequence order (a
// ReplLog-fed GroupCommit); upToSeq must be at or below the durable
// watermark — committed records are flushed to the OS before the
// watermark advances, so a fresh read of the active file sees them. A
// range the files do not cover returns ErrSegRange and the caller falls
// back to ReplSnapshot.
func (sa *SegmentedAOF) RangeRecords(afterSeq, upToSeq uint64) ([]ReplRecord, error) {
	if upToSeq <= afterSeq {
		return nil, nil
	}
	sa.mu.Lock()
	// Push buffered appends to the OS so the file read below can see
	// everything written so far; harmless for the durable-watermark
	// contract, and it spares non-GroupCommit callers a footgun.
	if sa.err == nil {
		if err := sa.w.Flush(); err != nil {
			sa.err = err
			sa.mu.Unlock()
			return nil, err
		}
	}
	gen := sa.gen
	sealed := append([]segMeta(nil), sa.sealed...)
	aBase := sa.aBase
	sa.mu.Unlock()

	out := make([]ReplRecord, 0, upToSeq-afterSeq)
	for _, m := range sealed {
		if m.base+m.records <= afterSeq {
			continue
		}
		if m.base >= upToSeq {
			break
		}
		if err := readSegRange(filepath.Join(sa.dir, segName(gen, m.base)), m.base, afterSeq, upToSeq, &out); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 || out[len(out)-1].Seq < upToSeq {
		if aBase < upToSeq {
			if err := readSegRange(filepath.Join(sa.dir, segName(gen, aBase)), aBase, afterSeq, upToSeq, &out); err != nil {
				return nil, err
			}
		}
	}
	if uint64(len(out)) != upToSeq-afterSeq {
		return nil, fmt.Errorf("%w: (%d, %d] yielded %d records", ErrSegRange, afterSeq, upToSeq, len(out))
	}
	return out, nil
}

// readSegRange appends the records of one segment file whose sequence
// numbers fall in (afterSeq, upToSeq] to *out. A truncated tail ends the
// scan (the active segment may end mid-append); the caller decides
// whether the collected range is complete.
func readSegRange(path string, base, afterSeq, upToSeq uint64, out *[]ReplRecord) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("ttkv: opening segment: %w", err)
	}
	//ocasta:allow stickyerr file opened read-only; no buffered writes to lose
	defer f.Close()
	if hb, err := readSegHeader(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	} else if hb != base {
		return fmt.Errorf("%w: %s: header base %d, expected %d", ErrSegCorrupt, path, hb, base)
	}
	seq := base
	_, _, _, err = scanRecords(f, func(key, value string, t time.Time, deleted bool) error {
		seq++
		if seq <= afterSeq {
			return nil
		}
		if seq > upToSeq {
			return errStopScan
		}
		*out = append(*out, ReplRecord{Seq: seq, Key: key, Value: value, Time: t, Deleted: deleted})
		return nil
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// replayInsert applies one replayed record with an explicit sequence
// number — the per-record work of segment replay. It bypasses the
// persistence sink and the stats observer: replay happens before either
// is attached, and the record is already durable. Publication is the
// caller's bulk advance after replay completes.
func (s *Store) replayInsert(key, value string, t time.Time, deleted bool, seq uint64) error {
	if key == "" {
		return ErrEmptyKey
	}
	if t.IsZero() {
		return ErrZeroTime
	}
	if len(key) > MaxStringLen || len(value) > MaxStringLen {
		return ErrOversize
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	s.insertLocked(sh, key, value, t, deleted, seq)
	sh.mu.Unlock()
	return nil
}

// writeSegIndex atomically replaces dir's manifest. The format is
// line-oriented text with a trailing CRC self-check:
//
//	ocasta-segments v1
//	gen <generation>
//	seg <base> <records> <bytes> <crc32c-hex>   (one per sealed segment)
//	end <crc32c-hex of all preceding bytes>
//
// The rename is the commit point for sealing and compaction alike.
func writeSegIndex(dir string, gen uint64, sealed []segMeta) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\ngen %d\n", segIndexMagic, gen)
	for _, m := range sealed {
		fmt.Fprintf(&b, "seg %d %d %d %08x\n", m.base, m.records, m.bytes, m.crc)
	}
	body := b.String()
	content := fmt.Sprintf("%send %08x\n", body, crc32.Checksum([]byte(body), segCRCTable))
	tmp := filepath.Join(dir, segIndexName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ttkv: writing segment index: %w", err)
	}
	if _, err := f.WriteString(content); err != nil {
		_ = f.Close() // returning the write error; close is cleanup
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // returning the real error; close is cleanup
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, segIndexName)); err != nil {
		return fmt.Errorf("ttkv: committing segment index: %w", err)
	}
	return syncDir(dir)
}

// readSegIndex parses dir's manifest. found reports whether the file
// exists; its absence is legitimate only before the first seal.
func readSegIndex(dir string) (gen uint64, sealed []segMeta, found bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, segIndexName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil, false, nil
		}
		return 0, nil, false, fmt.Errorf("ttkv: reading segment index: %w", err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) < 3 || lines[0] != segIndexMagic {
		return 0, nil, false, fmt.Errorf("%w: bad index header", ErrSegCorrupt)
	}
	// The last populated line is the self-check over everything before it.
	if lines[len(lines)-1] != "" {
		return 0, nil, false, fmt.Errorf("%w: index missing final newline", ErrSegCorrupt)
	}
	endLine := lines[len(lines)-2]
	wantCRC, ok := strings.CutPrefix(endLine, "end ")
	if !ok {
		return 0, nil, false, fmt.Errorf("%w: index missing end line", ErrSegCorrupt)
	}
	body := string(data[:len(data)-len(endLine)-1])
	crc, perr := strconv.ParseUint(wantCRC, 16, 32)
	if perr != nil || crc32.Checksum([]byte(body), segCRCTable) != uint32(crc) {
		return 0, nil, false, fmt.Errorf("%w: index checksum mismatch", ErrSegCorrupt)
	}
	if _, err := fmt.Sscanf(lines[1], "gen %d", &gen); err != nil || gen == 0 {
		return 0, nil, false, fmt.Errorf("%w: bad index generation", ErrSegCorrupt)
	}
	for _, line := range lines[2 : len(lines)-2] {
		var m segMeta
		if _, err := fmt.Sscanf(line, "seg %d %d %d %x", &m.base, &m.records, &m.bytes, &m.crc); err != nil {
			return 0, nil, false, fmt.Errorf("%w: bad index entry %q", ErrSegCorrupt, line)
		}
		sealed = append(sealed, m)
	}
	// Entries must tile the sequence space contiguously from zero.
	next := uint64(0)
	for _, m := range sealed {
		if m.base != next || m.records == 0 {
			return 0, nil, false, fmt.Errorf("%w: index entries not contiguous", ErrSegCorrupt)
		}
		next = m.base + m.records
	}
	return gen, sealed, true, nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ttkv: opening dir for sync: %w", err)
	}
	//ocasta:allow stickyerr directory handle; no buffered writes to lose
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ttkv: syncing dir: %w", err)
	}
	return nil
}

// CompactSegmentDir rewrites dir's history as a fresh generation of
// sealed segments: the existing segments replay into a scratch store
// (shards as NewSharded), which WriteSegmentDir then writes back — full
// history, or the newest retain versions per key when retain > 0. History
// retires segment-by-segment and the swap is the index rename. The
// directory must not be open in a live SegmentedAOF.
func CompactSegmentDir(dir string, shards, retain int, cfg SegmentedConfig) error {
	scratch := NewSharded(shards)
	sa, err := OpenSegmentedInto(dir, scratch, cfg)
	if err != nil {
		return err
	}
	if err := sa.Close(); err != nil {
		return err
	}
	return scratch.WriteSegmentDir(dir, retain, cfg)
}

// WriteSegmentDir writes the store's history into dir as the next
// generation of sealed segments sized by cfg — full history, or the
// newest retain versions per key when retain > 0 — commits the new index
// atomically, and sweeps every other generation. It is the one snapshot
// writer behind compaction, backup restore, flat-AOF import and trace
// generation; a fresh dir gets generation 2, as if generation 1 had been
// compacted. Segment sequence numbers are positional, so the written log
// replays to the store's versions in sequence order, renumbered densely.
// The directory must not be open in a live SegmentedAOF. A crash anywhere
// before the index commit leaves the previous generation intact (the new
// files are other-generation orphans the next open removes); a crash
// after it leaves only the sweep to redo.
func (s *Store) WriteSegmentDir(dir string, retain int, cfg SegmentedConfig) error {
	if retain < 0 {
		return fmt.Errorf("ttkv: negative version retention %d", retain)
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ttkv: creating segment dir: %w", err)
	}
	gen, _, found, err := readSegIndex(dir)
	if err != nil {
		return err
	}
	if !found {
		gen = 1 // what OpenSegmentedInto assumes before the first seal
	}
	newGen := gen + 1

	var metas []segMeta
	var f *os.File
	var w *bufio.Writer
	var cur segMeta
	var buf []byte
	seal := func() error {
		if err := w.Flush(); err != nil {
			_ = f.Close() // returning the real error; close is cleanup
			return err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() // returning the real error; close is cleanup
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		metas = append(metas, cur)
		f = nil
		return nil
	}
	for _, e := range s.snapshotEntries(retain) {
		if f == nil {
			base := uint64(0)
			if n := len(metas); n > 0 {
				base = metas[n-1].base + metas[n-1].records
			}
			f, err = os.OpenFile(filepath.Join(dir, segName(newGen, base)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				return fmt.Errorf("ttkv: creating snapshot segment: %w", err)
			}
			w = bufio.NewWriter(f)
			if _, err := w.Write(segHeader(base)); err != nil {
				_ = f.Close() // returning the real error; close is cleanup
				return err
			}
			cur = segMeta{base: base, bytes: int64(segHeaderLen)}
		}
		buf = appendRecord(buf[:0], e.key, e.v.Value, e.v.Time, e.v.Deleted)
		if _, err := w.Write(buf); err != nil {
			_ = f.Close() // returning the real error; close is cleanup
			return err
		}
		cur.crc = crc32.Update(cur.crc, segCRCTable, buf)
		cur.records++
		cur.bytes += int64(len(buf))
		if cur.bytes >= cfg.MaxSegmentBytes {
			if err := seal(); err != nil {
				return err
			}
		}
	}
	if f != nil {
		if err := seal(); err != nil {
			return err
		}
	}
	// Commit: the new index supersedes the previous generation atomically.
	if err := writeSegIndex(dir, newGen, metas); err != nil {
		return err
	}
	// Sweep the retired generation. Best-effort ordering only — the next
	// open sweeps anything a crash leaves behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("ttkv: reading segment dir: %w", err)
	}
	for _, e := range ents {
		if g, _, ok := parseSegName(e.Name()); ok && g != newGen {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("ttkv: sweeping retired segment: %w", err)
			}
		}
	}
	return syncDir(dir)
}
