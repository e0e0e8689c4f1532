package ttkv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"
)

// Persistence errors.
var (
	ErrAOFMagic   = errors.New("ttkv: bad AOF magic")
	ErrAOFVersion = errors.New("ttkv: unsupported AOF version")
	ErrAOFCorrupt = errors.New("ttkv: corrupt AOF record")
)

const (
	aofMagic   = "OCKV"
	aofVersion = 1
	// aofHeaderLen is the magic plus the little-endian uint16 version.
	aofHeaderLen = len(aofMagic) + 2
	// maxAOFString bounds encoded strings so corrupt length prefixes
	// cannot trigger giant allocations on replay. It equals MaxStringLen,
	// which the write path enforces, so every accepted write replays.
	maxAOFString = MaxStringLen

	opSet    = byte(1)
	opDelete = byte(2)
)

// aofSink is the persistence hook a Store writes through. Implementations
// must be safe for concurrent append calls: with a sharded store, writers
// in different shards append concurrently.
type aofSink interface {
	append(key, value string, t time.Time, deleted bool) error
	Sync() error
}

// appendRecord encodes one mutation record onto dst and returns the
// extended slice. This is the single encoder shared by the group-commit
// appender, the segment snapshot writer, and WriteSnapshot.
func appendRecord(dst []byte, key, value string, t time.Time, deleted bool) []byte {
	op := opSet
	if deleted {
		op = opDelete
	}
	dst = append(dst, op)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.UnixNano()))
	dst = appendLenPrefixed(dst, key)
	if !deleted {
		dst = appendLenPrefixed(dst, value)
	}
	return dst
}

func appendLenPrefixed(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// aofHeader returns the encoded file header.
func aofHeader() []byte {
	h := make([]byte, 0, aofHeaderLen)
	h = append(h, aofMagic...)
	return binary.LittleEndian.AppendUint16(h, uint16(aofVersion))
}

// AttachGroupCommit makes the store enqueue every subsequent Set/Delete to
// g's batch writer. Pass nil to detach.
func (s *Store) AttachGroupCommit(g *GroupCommit) {
	if g == nil {
		s.sink.Store(nil)
		return
	}
	s.sink.Store(&sinkBox{sink: g})
}

// SyncAOF flushes the attached persistence sink (group commit or
// replication log), if any, through to fsync.
func (s *Store) SyncAOF() error {
	box := s.sink.Load()
	if box == nil {
		return nil
	}
	return box.sink.Sync()
}

// ReadAOFInto replays an OCKV record stream — a WriteSnapshot dump, or a
// flat append-only file being migrated by ttkvd import-aof — from r into
// s through the normal write path, so sequence numbers are minted in
// stream order. A truncated final record is tolerated; any other
// corruption is an error.
func ReadAOFInto(r io.Reader, s *Store) error {
	hdr := make([]byte, aofHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("%w: %v", ErrAOFMagic, err)
	}
	if string(hdr[:len(aofMagic)]) != aofMagic {
		return ErrAOFMagic
	}
	if ver := binary.LittleEndian.Uint16(hdr[len(aofMagic):]); ver != aofVersion {
		return fmt.Errorf("%w: %d", ErrAOFVersion, ver)
	}
	_, _, _, err := scanRecords(r, func(key, value string, t time.Time, deleted bool) error {
		if deleted {
			return s.Delete(key, t)
		}
		return s.Set(key, value, t)
	})
	return err
}

// countingReader tracks how many bytes have been pulled from the
// underlying reader, so scanRecords can report record boundaries.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// scanRecords is the single record-stream loop shared by ReadAOFInto,
// segment replay, tail repair, and segment range reads. It parses
// AOF-encoded records from r (positioned just past any header), calls fn
// for each complete record, and returns the record count, the byte offset
// just past the last complete record, and the running CRC of the complete
// records' bytes. A truncated final record is tolerated (crash
// mid-append); any other corruption is an error — misreporting a
// transient I/O failure as a clean tail would let tail repair truncate
// away good records behind it. fn may stop the scan early with a sentinel
// error, which is returned verbatim.
func scanRecords(r io.Reader, fn func(key, value string, t time.Time, deleted bool) error) (n uint64, valid int64, crc uint32, err error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	// consumed reports the stream offset of the parse position: bytes
	// pulled from r minus bytes still sitting in the bufio buffer.
	consumed := func() int64 { return cr.n - int64(br.Buffered()) }
	var buf []byte
	for {
		op, err := br.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, valid, crc, nil
			}
			return n, valid, crc, err
		}
		if op != opSet && op != opDelete {
			return n, valid, crc, fmt.Errorf("%w: op %d", ErrAOFCorrupt, op)
		}
		var nanos int64
		if err := binary.Read(br, binary.LittleEndian, &nanos); err != nil {
			if isTruncation(err) {
				return n, valid, crc, nil // truncated tail: keep what we have
			}
			return n, valid, crc, err
		}
		key, err := aofReadString(br)
		if err != nil {
			if isTruncation(err) {
				return n, valid, crc, nil
			}
			return n, valid, crc, err
		}
		t := time.Unix(0, nanos).UTC()
		deleted := op == opDelete
		var value string
		if !deleted {
			if value, err = aofReadString(br); err != nil {
				if isTruncation(err) {
					return n, valid, crc, nil
				}
				return n, valid, crc, err
			}
		}
		if fn != nil {
			if err := fn(key, value, t, deleted); err != nil {
				return n, valid, crc, err
			}
		}
		// Re-encode for the CRC: the encoding round-trips exactly, so this
		// equals the record's on-disk bytes without plumbing raw spans out
		// of the buffered reader.
		buf = appendRecord(buf[:0], key, value, t, deleted)
		crc = crc32.Update(crc, segCRCTable, buf)
		n++
		valid = consumed()
	}
}

func isTruncation(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

func aofReadString(r *bufio.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > maxAOFString {
		return "", fmt.Errorf("%w: string length %d", ErrAOFCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// snapshotEntries collects every visible version in the store, sorted by
// global sequence number so equal-timestamp orderings survive a replay.
// With maxVersionsPerKey > 0 only the newest versions of each key are
// kept. The scan is lock-free and pinned at the publication watermark, so
// under concurrent writers it captures a globally consistent cut (atomic
// batches are included whole or not at all).
func (s *Store) snapshotEntries(maxVersionsPerKey int) []snapEntry {
	bound := s.pub.visible.Load()
	var entries []snapEntry
	for i := range s.shards {
		for k, rec := range s.shards[i].load() {
			vs := rec.state.Load().versions
			visible := vs
			for j := range vs {
				// An invisible version can sit anywhere in the slice
				// (out-of-order timestamps), so filtering needs a full
				// scan; the common all-visible case stays copy-free.
				if vs[j].Seq > bound {
					f := make([]Version, 0, len(vs)-1)
					for _, v := range vs {
						if v.Seq <= bound {
							f = append(f, v)
						}
					}
					visible = f
					break
				}
			}
			if maxVersionsPerKey > 0 && len(visible) > maxVersionsPerKey {
				visible = visible[len(visible)-maxVersionsPerKey:]
			}
			for _, v := range visible {
				entries = append(entries, snapEntry{key: k, v: v})
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].v.Seq < entries[j].v.Seq })
	return entries
}

type snapEntry struct {
	key string
	v   Version
}

// WriteSnapshot serializes the store's full state (all histories) to w
// as an OCKV record stream: the canonical byte dump the equivalence
// suites compare stores by, and what ReadAOFInto reads back. Versions are
// emitted in global sequence order so equal-timestamp orderings survive
// the round trip. Under concurrent writes the snapshot is a globally
// consistent cut pinned at the publication watermark.
func (s *Store) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(aofHeader()); err != nil {
		return err
	}
	var buf []byte
	for _, e := range s.snapshotEntries(0) {
		buf = appendRecord(buf[:0], e.key, e.v.Value, e.v.Time, e.v.Deleted)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
