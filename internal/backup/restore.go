package backup

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ocasta/internal/ttkv"
)

// Restore errors.
var (
	// ErrNoBackups is returned when the directory holds no restorable
	// backup chain at all.
	ErrNoBackups = errors.New("backup: no restorable backups")
	// ErrTargetUnreachable is returned when a sequence target lies past
	// everything any intact chain covers.
	ErrTargetUnreachable = errors.New("backup: target sequence past every backup")
)

// Target selects the point in time to restore to. The zero value means
// "latest": everything the newest intact chain covers. Seq bounds the
// restore at a store sequence number (state as ViewAt(Seq) saw it);
// Time bounds it at a timestamp (state as GetAt(key, Time) saw it —
// records stamped later are dropped even if they were written, and
// archived, earlier in sequence order, exactly mirroring GetAt's
// timeline semantics). Both may be set; records must pass both bounds.
type Target struct {
	Seq  uint64
	Time time.Time
}

// ParseTarget parses a restore target: "" is latest, a bare decimal
// integer is a sequence number, anything else must be an RFC 3339
// timestamp ("2026-08-07T12:00:00Z", fractional seconds allowed).
func ParseTarget(s string) (Target, error) {
	if s == "" {
		return Target{}, nil
	}
	if isDecimal(s) {
		seq, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return Target{}, fmt.Errorf("backup: bad sequence target %q: %w", s, err)
		}
		if seq == 0 {
			return Target{}, errors.New("backup: sequence target must be positive")
		}
		return Target{Seq: seq}, nil
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return Target{}, fmt.Errorf("backup: target %q is neither a sequence number nor an RFC 3339 time", s)
	}
	return Target{Time: t}, nil
}

func isDecimal(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// RestoreInfo describes what a restore replayed.
type RestoreInfo struct {
	// HeadID is the manifest the chain was restored through and ChainLen
	// how many manifests the chain held (1 for a bare full backup).
	HeadID   string
	ChainLen int
	// UpTo is the head manifest's sequence bound — the latest state the
	// chain could restore.
	UpTo uint64
	// RecordsRead counts records decoded from the chain, RecordsApplied
	// the subset within the target bounds, and AppliedSeq the highest
	// sequence number applied (0 for an empty restore).
	RecordsRead    uint64
	RecordsApplied uint64
	AppliedSeq     uint64
}

// applyChunk bounds how many records are applied under the shard locks
// at once during restore.
const applyChunk = 4096

// Restore materializes the backed-up store at target into a fresh
// in-memory store with the given shard count (0 for the default). It
// picks the newest intact chain that can serve the target, verifies
// every record file's checksum as it reads — a backup that drifted on
// disk fails here, never silently restores — and replays the chain in
// sequence order, so the restored store re-creates the original's exact
// per-version histories and sequence numbers: a snapshot dump of the
// restored store is byte-identical to one of the original at the same
// point.
func Restore(dir string, target Target, shards int) (*ttkv.Store, *RestoreInfo, error) {
	entries, corrupt, err := loadManifests(dir)
	if err != nil {
		return nil, nil, err
	}
	chain, err := pickChain(entries, corrupt, target)
	if err != nil {
		return nil, nil, err
	}
	head := chain[len(chain)-1]
	info := &RestoreInfo{HeadID: head.ID, ChainLen: len(chain), UpTo: head.UpTo}

	if shards <= 0 {
		shards = ttkv.DefaultShards
	}
	store := ttkv.NewSharded(shards)
	var batch []ttkv.ReplRecord
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := store.ApplyReplicated(batch); err != nil {
			return fmt.Errorf("backup: replaying chain: %w", err)
		}
		info.RecordsApplied += uint64(len(batch))
		info.AppliedSeq = batch[len(batch)-1].Seq
		batch = batch[:0]
		return nil
	}
	for _, m := range chain {
		for _, f := range m.Files {
			if target.Seq != 0 && f.From >= target.Seq {
				break // sequences only ascend from here on
			}
			recs, err := readRecordFile(dir, f)
			if err != nil {
				return nil, nil, err
			}
			info.RecordsRead += uint64(len(recs))
			for _, r := range recs {
				if target.Seq != 0 && r.Seq > target.Seq {
					break
				}
				if !target.Time.IsZero() && r.Time.After(target.Time) {
					continue
				}
				batch = append(batch, r)
				if len(batch) >= applyChunk {
					if err := flush(); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, nil, err
	}
	return store, info, nil
}

// RestoreToDir restores at target and writes the result into outDir as
// a fresh generation of sealed segments — the directory a daemon then
// serves with -aof-dir (an existing log there is superseded). Segment
// replay re-derives the sequence numbers the backup recorded (they are
// dense on a logging primary), so the round trip through cold storage is
// exact.
func RestoreToDir(dir string, target Target, outDir string, shards int) (*RestoreInfo, error) {
	store, info, err := Restore(dir, target, shards)
	if err != nil {
		return nil, err
	}
	if err := store.WriteSegmentDir(outDir, 0, ttkv.SegmentedConfig{}); err != nil {
		return nil, fmt.Errorf("backup: writing restored segments: %w", err)
	}
	return info, nil
}

// pickChain selects the restore chain: among manifests whose ancestry
// is intact and whose range can serve the target, the newest. Broken or
// corrupt manifests are skipped — a directory where the newest chain is
// damaged still restores from an older intact one.
func pickChain(entries []loaded, corrupt []string, target Target) ([]*Manifest, error) {
	byID := map[string]*Manifest{}
	for _, e := range entries {
		if _, dup := byID[e.man.ID]; dup {
			return nil, fmt.Errorf("backup: duplicate backup id %s in directory", e.man.ID)
		}
		byID[e.man.ID] = e.man
	}
	var bestShort *Manifest // newest intact head, for the error message
	for i := len(entries) - 1; i >= 0; i-- {
		head := entries[i].man
		if _, ok := chainRoot(head, byID); !ok {
			continue
		}
		if target.Seq != 0 && head.UpTo < target.Seq {
			if bestShort == nil {
				bestShort = head
			}
			continue
		}
		var chain []*Manifest
		for cur := head; ; cur = byID[cur.Parent] {
			chain = append(chain, cur)
			if cur.Kind == KindFull {
				break
			}
		}
		// Walked head→root; replay wants root→head.
		for a, b := 0, len(chain)-1; a < b; a, b = a+1, b-1 {
			chain[a], chain[b] = chain[b], chain[a]
		}
		return chain, nil
	}
	if bestShort != nil {
		return nil, fmt.Errorf("%w: want seq %d, newest intact backup covers up to %d", ErrTargetUnreachable, target.Seq, bestShort.UpTo)
	}
	if len(corrupt) > 0 {
		return nil, fmt.Errorf("%w (%d corrupt manifests in directory — run verify)", ErrNoBackups, len(corrupt))
	}
	return nil, ErrNoBackups
}

// readRecordFile reads one record file, insisting on the manifested
// size and checksum before decoding.
func readRecordFile(dir string, f FileInfo) ([]ttkv.ReplRecord, error) {
	path := filepath.Join(dir, f.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("backup: reading %s: %w", f.Name, err)
	}
	if int64(len(data)) != f.Bytes {
		return nil, fmt.Errorf("%w: %s is %d bytes, manifest says %d", ErrRecordFileCorrupt, f.Name, len(data), f.Bytes)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != f.SHA256 {
		return nil, fmt.Errorf("%w: %s checksum mismatch", ErrRecordFileCorrupt, f.Name)
	}
	recs, err := decodeRecordFile(data, f.From, f.To)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name, err)
	}
	if uint64(len(recs)) != f.Records {
		return nil, fmt.Errorf("%w: %s holds %d records, manifest says %d", ErrRecordFileCorrupt, f.Name, len(recs), f.Records)
	}
	return recs, nil
}
