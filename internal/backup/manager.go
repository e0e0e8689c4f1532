package backup

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ocasta/internal/ttkv"
)

// Manager errors.
var (
	// ErrUpToDate is returned by Incremental (and Auto) when the store has
	// minted no new sequence numbers since the newest backup — there is
	// nothing to archive, and an empty incremental would only pad chains.
	ErrUpToDate = errors.New("backup: no new records since the newest backup")
	// ErrNoBase is returned by Incremental when the directory holds no
	// backup to increment on; take a full backup first (or use Auto).
	ErrNoBase = errors.New("backup: no existing backup to increment on")
	// ErrStoreBehind is returned when the store's current sequence is
	// below the newest backup's — the directory belongs to a different
	// (or further-ahead) store, and chaining onto it would lie.
	ErrStoreBehind = errors.New("backup: store is behind the newest backup")
)

// manifestExt is the manifest file suffix; record files use ".rec" and
// in-flight temp files ".tmp".
const (
	manifestExt = ".bkm"
	recordExt   = ".rec"
	tmpExt      = ".tmp"
)

// DefaultMaxFileBytes is the default record-file segment size: large
// backups split into segments around this size so a verify failure
// localizes to one bounded file and partial-write windows stay small.
const DefaultMaxFileBytes = 64 << 20

// Options tunes a Manager. The zero value is ready to use.
type Options struct {
	// MaxFileBytes caps each record file's size (approximately: a segment
	// closes after the record that crosses the cap). 0 means
	// DefaultMaxFileBytes.
	MaxFileBytes int64
}

// Manager takes backups of one store into one directory. All operations
// serialize on an internal mutex, so a scheduled backup and a BACKUP
// wire command never interleave their directory scans and writes; the
// store itself is never blocked — exports pin a sequence bound and scan
// under per-shard read locks only. A Manager works identically on a
// primary and on a read-only replica (replicas apply the primary's
// sequence numbers verbatim, so a replica's backups restore to the same
// bytes); the one replica hazard — a full resync Reset mid-export — is
// detected and returned as an error rather than archived.
//
//ocasta:durable
type Manager struct {
	dir          string
	store        *ttkv.Store
	maxFileBytes int64

	mu  sync.Mutex
	now func() time.Time // test hook; time.Now outside tests
}

// NewManager returns a Manager writing backups of store into dir,
// creating the directory if needed.
func NewManager(store *ttkv.Store, dir string, opts Options) (*Manager, error) {
	if store == nil {
		return nil, errors.New("backup: nil store")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("backup: creating directory: %w", err)
	}
	maxBytes := opts.MaxFileBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxFileBytes
	}
	return &Manager{dir: dir, store: store, maxFileBytes: maxBytes, now: time.Now}, nil
}

// Dir returns the backup directory.
func (m *Manager) Dir() string { return m.dir }

// Full takes a full backup: every record in (0, CurrentSeq].
func (m *Manager) Full() (*Manifest, error) { return m.run(KindFull) }

// Incremental takes an incremental backup on top of the newest existing
// backup: every record minted since its UpTo. ErrNoBase without an
// existing backup; ErrUpToDate when there is nothing new.
func (m *Manager) Incremental() (*Manifest, error) { return m.run(KindIncr) }

// Auto takes a full backup into an empty directory and an incremental
// otherwise — the right default for a schedule.
func (m *Manager) Auto() (*Manifest, error) { return m.run("") }

// List returns the directory's decodable manifests, oldest first.
// Corrupt manifests are skipped here; Verify reports them.
func (m *Manager) List() ([]*Manifest, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	entries, _, err := loadManifests(m.dir)
	if err != nil {
		return nil, err
	}
	out := make([]*Manifest, len(entries))
	for i, e := range entries {
		out[i] = e.man
	}
	return out, nil
}

// Verify runs the offline verifier against the manager's directory.
func (m *Manager) Verify() (*Report, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return VerifyDir(m.dir)
}

// run takes one backup. kind "" means Auto.
func (m *Manager) run(kind string) (*Manifest, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	entries, _, err := loadManifests(m.dir)
	if err != nil {
		return nil, err
	}
	if kind == "" {
		if len(entries) == 0 {
			kind = KindFull
		} else {
			kind = KindIncr
		}
	}

	man := &Manifest{Kind: kind, Created: m.now().UnixNano()}
	if kind == KindIncr {
		if len(entries) == 0 {
			return nil, ErrNoBase
		}
		newest := entries[len(entries)-1].man
		man.Base, man.Parent = newest.UpTo, newest.ID
	}
	man.UpTo = m.store.CurrentSeq()
	if man.UpTo < man.Base {
		return nil, fmt.Errorf("%w: store at seq %d, newest backup at %d", ErrStoreBehind, man.UpTo, man.Base)
	}
	if kind == KindIncr && man.UpTo == man.Base {
		return nil, ErrUpToDate
	}
	if man.ID, err = newID(); err != nil {
		return nil, err
	}

	recs, err := m.store.ExportRange(man.Base, man.UpTo)
	if err != nil {
		return nil, err
	}
	segs, err := buildSegments(recs, man, m.maxFileBytes)
	if err != nil {
		return nil, err
	}

	// Durability ordering is the crash-safety story: every record file is
	// fully written, fsynced, and renamed into place — and the directory
	// synced — before the manifest that names it is even started. A kill
	// at any instant leaves either "*.tmp" debris or record files no
	// manifest references; both are invisible to verify and restore, and
	// Prune sweeps them.
	for _, seg := range segs {
		if err := writeFileAtomic(m.dir, seg.info.Name, seg.data); err != nil {
			return nil, err
		}
		man.Files = append(man.Files, seg.info)
	}
	syncDir(m.dir)
	if err := writeFileAtomic(m.dir, man.ID+manifestExt, man.Encode()); err != nil {
		return nil, err
	}
	syncDir(m.dir)
	return man, nil
}

// segment is one record file ready to write.
type segment struct {
	info FileInfo
	data []byte
}

// buildSegments encodes records into one or more record files of at most
// roughly maxBytes each, tiling (man.Base, man.UpTo] contiguously. It
// revalidates every record against the archival invariants (strictly
// ascending within the range), so a torn export fails here as
// ErrSnapshotTorn instead of reaching disk.
func buildSegments(recs []ttkv.ReplRecord, man *Manifest, maxBytes int64) ([]segment, error) {
	var segs []segment
	open := func(from uint64) *segment {
		segs = append(segs, segment{
			info: FileInfo{
				Name: fmt.Sprintf("%s-%s-%d%s", man.Kind, man.ID, len(segs), recordExt),
				From: from,
			},
			data: []byte(recMagic),
		})
		return &segs[len(segs)-1]
	}
	cur := open(man.Base)
	last := man.Base
	for i, r := range recs {
		if err := checkRecord(r, last); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrSnapshotTorn, i, err)
		}
		if r.Seq > man.UpTo {
			return nil, fmt.Errorf("%w: record %d: seq %d past pinned bound %d", ErrSnapshotTorn, i, r.Seq, man.UpTo)
		}
		if int64(len(cur.data)) >= maxBytes && cur.info.Records > 0 {
			cur.info.To = last
			cur = open(last)
		}
		cur.data = ttkv.AppendReplRecord(cur.data, r)
		cur.info.Records++
		last = r.Seq
	}
	// The final segment absorbs the tail of the range even when the last
	// records are sparse: its To is the pinned bound, not the last seq.
	cur.info.To = man.UpTo
	for i := range segs {
		sum := sha256.Sum256(segs[i].data)
		segs[i].info.Bytes = int64(len(segs[i].data))
		segs[i].info.SHA256 = hex.EncodeToString(sum[:])
	}
	return segs, nil
}

// writeFileAtomic writes name under dir with the temp-file + fsync +
// rename discipline (as the segmented log commits its index): readers and
// crash recovery only ever see absent, in-progress ".tmp", or complete.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+tmpExt)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("backup: creating %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()      // the write error wins
		_ = os.Remove(tmp) // best-effort cleanup of the torn temp file
		return fmt.Errorf("backup: writing %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()      // the sync error wins
		_ = os.Remove(tmp) // best-effort cleanup
		return fmt.Errorf("backup: syncing %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp) // best-effort cleanup
		return fmt.Errorf("backup: closing %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("backup: publishing %s: %w", name, err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss;
// best-effort, as not every filesystem supports directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()  // best-effort by contract
	_ = d.Close() // read-only handle; nothing buffered
}

// newID returns 8 random bytes as 16 hex digits.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("backup: generating id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// loaded is one decodable manifest plus where it lives.
type loaded struct {
	man  *Manifest
	path string
}

// loadManifests reads every "*.bkm" in dir, returning the decodable ones
// sorted oldest first — by UpTo, then Created, then ID, so "newest"
// means highest store state even if the wall clock stepped — plus the
// paths of any that failed to decode.
func loadManifests(dir string) (entries []loaded, corrupt []string, err error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("backup: reading directory: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, manifestExt) {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("backup: reading %s: %w", name, err)
		}
		man, err := DecodeManifest(data)
		if err != nil {
			corrupt = append(corrupt, path)
			continue
		}
		entries = append(entries, loaded{man: man, path: path})
	}
	sort.Slice(entries, func(a, b int) bool {
		ma, mb := entries[a].man, entries[b].man
		if ma.UpTo != mb.UpTo {
			return ma.UpTo < mb.UpTo
		}
		if ma.Created != mb.Created {
			return ma.Created < mb.Created
		}
		return ma.ID < mb.ID
	})
	return entries, corrupt, nil
}
