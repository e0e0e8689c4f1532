package backup

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocasta/internal/ttkv"
)

// baseTime anchors test timestamps; offsets keep them distinct.
var baseTime = time.Unix(1_700_000_000, 0).UTC()

func at(i int) time.Time { return baseTime.Add(time.Duration(i) * time.Millisecond) }

// fillStore writes n sequential versions across a few keys.
func fillStore(t *testing.T, s *ttkv.Store, start, n int) {
	t.Helper()
	keys := []string{"httpd.conf", "php.ini", "my.cnf", "sshd_config", "crontab"}
	for i := start; i < start+n; i++ {
		k := keys[i%len(keys)]
		if i%17 == 16 {
			if err := s.Delete(k, at(i)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			continue
		}
		if err := s.Set(k, strings.Repeat("v", 1+i%40)+"-"+k, at(i)); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
}

// dump renders a store's canonical snapshot bytes.
func dump(t *testing.T, s *ttkv.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func newManager(t *testing.T, s *ttkv.Store, opts Options) *Manager {
	t.Helper()
	m, err := NewManager(s, t.TempDir(), opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func TestFullBackupRestoreRoundTrip(t *testing.T) {
	store := ttkv.New()
	fillStore(t, store, 0, 500)
	m := newManager(t, store, Options{})

	man, err := m.Full()
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	if man.Kind != KindFull || man.Base != 0 || man.UpTo != store.CurrentSeq() {
		t.Fatalf("manifest = %+v, want full (0, %d]", man, store.CurrentSeq())
	}
	if man.Records() != 500 {
		t.Fatalf("Records() = %d, want 500", man.Records())
	}

	restored, info, err := Restore(m.Dir(), Target{}, 0)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if info.RecordsApplied != 500 || info.AppliedSeq != man.UpTo {
		t.Fatalf("info = %+v, want 500 applied up to %d", info, man.UpTo)
	}
	if !bytes.Equal(dump(t, restored), dump(t, store)) {
		t.Fatal("restored dump differs from original")
	}
}

func TestIncrementalChainRestore(t *testing.T) {
	store := ttkv.New()
	m := newManager(t, store, Options{MaxFileBytes: 2048}) // force multi-file backups

	fillStore(t, store, 0, 300)
	full, err := m.Full()
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	if len(full.Files) < 2 {
		t.Fatalf("expected the small segment cap to split the full backup, got %d file(s)", len(full.Files))
	}

	var incrs []*Manifest
	for i := 0; i < 3; i++ {
		fillStore(t, store, 300+100*i, 100)
		man, err := m.Incremental()
		if err != nil {
			t.Fatalf("Incremental %d: %v", i, err)
		}
		incrs = append(incrs, man)
	}
	for i, man := range incrs {
		wantParent := full.ID
		if i > 0 {
			wantParent = incrs[i-1].ID
		}
		if man.Parent != wantParent {
			t.Fatalf("incr %d parent = %s, want %s", i, man.Parent, wantParent)
		}
		wantBase := full.UpTo
		if i > 0 {
			wantBase = incrs[i-1].UpTo
		}
		if man.Base != wantBase {
			t.Fatalf("incr %d base = %d, want %d", i, man.Base, wantBase)
		}
	}

	restored, info, err := Restore(m.Dir(), Target{}, 0)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if info.ChainLen != 4 {
		t.Fatalf("ChainLen = %d, want 4", info.ChainLen)
	}
	if !bytes.Equal(dump(t, restored), dump(t, store)) {
		t.Fatal("restored dump differs from original")
	}
}

func TestIncrementalEdges(t *testing.T) {
	store := ttkv.New()
	m := newManager(t, store, Options{})

	if _, err := m.Incremental(); !errors.Is(err, ErrNoBase) {
		t.Fatalf("Incremental on empty dir: %v, want ErrNoBase", err)
	}
	fillStore(t, store, 0, 10)
	if _, err := m.Auto(); err != nil {
		t.Fatalf("Auto (full): %v", err)
	}
	if _, err := m.Incremental(); !errors.Is(err, ErrUpToDate) {
		t.Fatalf("Incremental with nothing new: %v, want ErrUpToDate", err)
	}
	if _, err := m.Auto(); !errors.Is(err, ErrUpToDate) {
		t.Fatalf("Auto with nothing new: %v, want ErrUpToDate", err)
	}
	fillStore(t, store, 10, 5)
	man, err := m.Auto()
	if err != nil || man.Kind != KindIncr {
		t.Fatalf("Auto (incr) = %+v, %v", man, err)
	}

	// A different (behind) store must refuse to chain onto this set.
	m2, err := NewManager(ttkv.New(), m.Dir(), Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if _, err := m2.Incremental(); !errors.Is(err, ErrStoreBehind) {
		t.Fatalf("Incremental from behind store: %v, want ErrStoreBehind", err)
	}
}

func TestBackupOfEmptyStore(t *testing.T) {
	store := ttkv.New()
	m := newManager(t, store, Options{})
	man, err := m.Full()
	if err != nil {
		t.Fatalf("Full of empty store: %v", err)
	}
	if man.UpTo != 0 || man.Records() != 0 || len(man.Files) != 1 {
		t.Fatalf("manifest = %+v, want empty single-file backup", man)
	}
	restored, info, err := Restore(m.Dir(), Target{}, 0)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Len() != 0 || info.RecordsApplied != 0 {
		t.Fatalf("restored %d keys, applied %d; want empty", restored.Len(), info.RecordsApplied)
	}
}

func TestRestoreAtSeqMatchesViewAt(t *testing.T) {
	store := ttkv.New()
	m := newManager(t, store, Options{})
	fillStore(t, store, 0, 200)
	if _, err := m.Full(); err != nil {
		t.Fatalf("Full: %v", err)
	}
	fillStore(t, store, 200, 200)
	if _, err := m.Incremental(); err != nil {
		t.Fatalf("Incremental: %v", err)
	}

	for _, seq := range []uint64{1, 37, 200, 250, 400} {
		restored, info, err := Restore(m.Dir(), Target{Seq: seq}, 0)
		if err != nil {
			t.Fatalf("Restore at seq %d: %v", seq, err)
		}
		if info.AppliedSeq != seq {
			t.Fatalf("AppliedSeq = %d, want %d", info.AppliedSeq, seq)
		}
		view := store.ViewAt(seq)
		wantKeys := view.Keys()
		gotKeys := restored.Keys()
		if len(wantKeys) != len(gotKeys) {
			t.Fatalf("seq %d: %d keys, want %d", seq, len(gotKeys), len(wantKeys))
		}
		for _, k := range wantKeys {
			want, werr := view.History(k)
			got, gerr := restored.History(k)
			if (werr != nil) != (gerr != nil) || len(want) != len(got) {
				t.Fatalf("seq %d key %s: history mismatch (%v/%v, %d/%d versions)", seq, k, werr, gerr, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seq %d key %s version %d: %+v != %+v", seq, k, i, got[i], want[i])
				}
			}
		}
	}

	if _, _, err := Restore(m.Dir(), Target{Seq: 100000}, 0); !errors.Is(err, ErrTargetUnreachable) {
		t.Fatalf("Restore past backups: %v, want ErrTargetUnreachable", err)
	}
}

func TestRestoreAtTimeMatchesGetAt(t *testing.T) {
	store := ttkv.New()
	m := newManager(t, store, Options{})
	fillStore(t, store, 0, 150)
	// Out-of-order timestamps: a late write stamped into the past must be
	// excluded by a time-target restore, exactly as GetAt excludes it...
	if err := store.Set("php.ini", "backdated", at(60)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Full(); err != nil {
		t.Fatalf("Full: %v", err)
	}

	cut := at(100)
	restored, _, err := Restore(m.Dir(), Target{Time: cut}, 0)
	if err != nil {
		t.Fatalf("Restore at time: %v", err)
	}
	for _, k := range store.Keys() {
		want, werr := store.GetAt(k, cut)
		got, gerr := restored.GetAt(k, cut)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("key %s: GetAt errs %v vs %v", k, gerr, werr)
		}
		if werr == nil && want != got {
			t.Fatalf("key %s: GetAt = %+v, want %+v", k, got, want)
		}
		// ...and nothing after the cut may exist at all in the restored store.
		hist, err := restored.History(k)
		if err != nil {
			continue
		}
		for _, v := range hist {
			if v.Time.After(cut) {
				t.Fatalf("key %s: restored version stamped %v, after the %v cut", k, v.Time, cut)
			}
		}
	}
	// The backdated write is stamped before the cut, so it must survive.
	if v, err := restored.GetAt("php.ini", at(60)); err != nil || v.Value != "backdated" {
		t.Fatalf("backdated write lost: %+v, %v", v, err)
	}
}

// TestRestoreToAOFRoundTrip: RestoreToDir writes the restored store as a
// segment directory that replays to a byte-identical dump and identical
// sequence numbers.
func TestRestoreToAOFRoundTrip(t *testing.T) {
	store := ttkv.New()
	m := newManager(t, store, Options{})
	fillStore(t, store, 0, 250)
	if _, err := m.Full(); err != nil {
		t.Fatalf("Full: %v", err)
	}
	out := filepath.Join(t.TempDir(), "restored")
	if _, err := RestoreToDir(m.Dir(), Target{}, out, 0); err != nil {
		t.Fatalf("RestoreToDir: %v", err)
	}
	reloaded := ttkv.New()
	sa, err := ttkv.OpenSegmentedInto(out, reloaded, ttkv.SegmentedConfig{})
	if err != nil {
		t.Fatalf("OpenSegmentedInto: %v", err)
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump(t, reloaded), dump(t, store)) {
		t.Fatal("segment round trip dump differs from original")
	}
	if reloaded.CurrentSeq() != store.CurrentSeq() {
		t.Fatalf("reloaded seq %d, want %d", reloaded.CurrentSeq(), store.CurrentSeq())
	}
}

func TestVerifyDetectsDamage(t *testing.T) {
	setup := func(t *testing.T) (*Manager, *Manifest, *Manifest) {
		store := ttkv.New()
		m := newManager(t, store, Options{})
		fillStore(t, store, 0, 100)
		full, err := m.Full()
		if err != nil {
			t.Fatalf("Full: %v", err)
		}
		fillStore(t, store, 100, 50)
		incr, err := m.Incremental()
		if err != nil {
			t.Fatalf("Incremental: %v", err)
		}
		if rep, err := m.Verify(); err != nil || !rep.OK() {
			t.Fatalf("fresh set must verify: %+v, %v", rep, err)
		}
		return m, full, incr
	}

	t.Run("clean", func(t *testing.T) {
		m, _, _ := setup(t)
		rep, err := m.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Manifests != 2 || rep.Backups != 2 || rep.Fulls != 1 {
			t.Fatalf("report = %+v", rep)
		}
	})
	t.Run("record file bit flip", func(t *testing.T) {
		m, full, _ := setup(t)
		path := filepath.Join(m.Dir(), full.Files[0].Name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		assertIssue(t, m, "checksum mismatch")
	})
	t.Run("record file truncated", func(t *testing.T) {
		m, full, _ := setup(t)
		path := filepath.Join(m.Dir(), full.Files[0].Name)
		if err := os.Truncate(path, full.Files[0].Bytes/2); err != nil {
			t.Fatal(err)
		}
		assertIssue(t, m, "size")
	})
	t.Run("record file missing", func(t *testing.T) {
		m, _, incr := setup(t)
		if err := os.Remove(filepath.Join(m.Dir(), incr.Files[0].Name)); err != nil {
			t.Fatal(err)
		}
		assertIssue(t, m, "unreadable")
	})
	t.Run("manifest bit flip", func(t *testing.T) {
		m, full, _ := setup(t)
		path := filepath.Join(m.Dir(), full.ID+manifestExt)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/3] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		assertIssue(t, m, "corrupt manifest")
	})
	t.Run("broken chain", func(t *testing.T) {
		m, full, _ := setup(t)
		if err := os.Remove(filepath.Join(m.Dir(), full.ID+manifestExt)); err != nil {
			t.Fatal(err)
		}
		assertIssue(t, m, "parent")
		// And restore must refuse: no intact chain remains.
		if _, _, err := Restore(m.Dir(), Target{}, 0); !errors.Is(err, ErrNoBackups) {
			t.Fatalf("Restore with broken chain: %v, want ErrNoBackups", err)
		}
	})
	t.Run("restore falls back to older intact chain", func(t *testing.T) {
		m, _, incr := setup(t)
		// Damage the newest backup's data; restore should use the full.
		if err := os.Remove(filepath.Join(m.Dir(), incr.ID+manifestExt)); err != nil {
			t.Fatal(err)
		}
		_, info, err := Restore(m.Dir(), Target{}, 0)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if info.ChainLen != 1 || info.UpTo != 100 {
			t.Fatalf("info = %+v, want the 100-seq full backup", info)
		}
	})
}

func assertIssue(t *testing.T, m *Manager, substr string) {
	t.Helper()
	rep, err := m.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.OK() {
		t.Fatalf("Verify passed; want an issue containing %q", substr)
	}
	for _, issue := range rep.Issues {
		if strings.Contains(issue.String(), substr) {
			return
		}
	}
	t.Fatalf("no issue contains %q: %+v", substr, rep.Issues)
}

func TestPruneRetention(t *testing.T) {
	store := ttkv.New()
	m := newManager(t, store, Options{})

	// Three full-rooted chains: full+incr, full+incr, full.
	var mans []*Manifest
	for chain := 0; chain < 3; chain++ {
		fillStore(t, store, 100*chain*2, 100)
		full, err := m.Full()
		if err != nil {
			t.Fatalf("Full: %v", err)
		}
		mans = append(mans, full)
		if chain < 2 {
			fillStore(t, store, 100*(chain*2+1), 100)
			incr, err := m.Incremental()
			if err != nil {
				t.Fatalf("Incremental: %v", err)
			}
			mans = append(mans, incr)
		}
	}
	// An incremental chains onto the newest manifest — here the last
	// full — keeping exactly one chain per full in this test.
	if got, _ := m.List(); len(got) != 5 {
		t.Fatalf("List = %d manifests, want 5", len(got))
	}

	// keepFulls < 1 never deletes backups.
	if res, err := m.Prune(0); err != nil || res.Backups != 0 {
		t.Fatalf("Prune(0) = %+v, %v; want no-op", res, err)
	}

	res, err := m.Prune(2)
	if err != nil {
		t.Fatalf("Prune(2): %v", err)
	}
	if res.Backups != 2 { // oldest full + its incr
		t.Fatalf("Prune removed %d backups, want 2", res.Backups)
	}
	left, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 3 {
		t.Fatalf("%d manifests left, want 3", len(left))
	}
	for _, man := range left {
		if man.ID == mans[0].ID || man.ID == mans[1].ID {
			t.Fatalf("oldest chain survived prune: %s", man.ID)
		}
	}
	if rep, err := m.Verify(); err != nil || !rep.OK() || len(rep.Orphans) != 0 {
		t.Fatalf("post-prune verify: %+v, %v", rep, err)
	}
	// The newest chains must still restore.
	restored, _, err := Restore(m.Dir(), Target{}, 0)
	if err != nil {
		t.Fatalf("Restore after prune: %v", err)
	}
	if !bytes.Equal(dump(t, restored), dump(t, store)) {
		t.Fatal("restored dump differs after prune")
	}
}

func TestPruneSweepsDebris(t *testing.T) {
	store := ttkv.New()
	m := newManager(t, store, Options{})
	fillStore(t, store, 0, 20)
	if _, err := m.Full(); err != nil {
		t.Fatal(err)
	}
	// Simulated crash debris: a temp file and an orphan record file.
	if err := os.WriteFile(filepath.Join(m.Dir(), "full-feedfacefeedface-0.rec.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(m.Dir(), "full-feedfacefeedface-0.rec"), []byte(recMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("debris must not fail verify: %+v, %v", rep, err)
	}
	if len(rep.TempFiles) != 1 || len(rep.Orphans) != 1 {
		t.Fatalf("debris census = %+v", rep)
	}
	res, err := m.Prune(1)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if res.TempFiles != 1 || res.DataFiles != 1 || res.Backups != 0 {
		t.Fatalf("Prune = %+v, want 1 temp + 1 orphan swept", res)
	}
	rep, err = m.Verify()
	if err != nil || !rep.OK() || len(rep.TempFiles) != 0 || len(rep.Orphans) != 0 {
		t.Fatalf("post-sweep report = %+v, %v", rep, err)
	}
}

func TestManifestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Manifest{
		ID:      "0123456789abcdef",
		Kind:    KindIncr,
		Created: baseTime.UnixNano(),
		Base:    100,
		UpTo:    250,
		Parent:  "fedcba9876543210",
		Files: []FileInfo{
			{Name: "incr-0123456789abcdef-0.rec", From: 100, To: 200, Records: 90, Bytes: 4096, SHA256: strings.Repeat("ab", 32)},
			{Name: "incr-0123456789abcdef-1.rec", From: 200, To: 250, Records: 50, Bytes: 2048, SHA256: strings.Repeat("cd", 32)},
		},
	}
	enc := m.Encode()
	dec, err := DecodeManifest(enc)
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encode differs")
	}
	if dec.ID != m.ID || dec.Parent != m.Parent || len(dec.Files) != 2 || dec.Files[1] != m.Files[1] {
		t.Fatalf("decoded = %+v", dec)
	}

	// Tampering anywhere — including flipping a data-file checksum —
	// must fail the trailing sum.
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { b[10] ^= 1; return b },                       // id
		func(b []byte) []byte { b[bytes.IndexByte(b, '4')] = '5'; return b }, // a number
		func(b []byte) []byte { return b[:len(b)-2] },                        // truncation
		func(b []byte) []byte { return append(b, '\n') },                     // trailing junk
	} {
		b := mutate(append([]byte(nil), enc...))
		if _, err := DecodeManifest(b); err == nil {
			t.Fatalf("tampered manifest accepted: %q", b)
		}
	}
}

func TestExportRangeTornDetection(t *testing.T) {
	store := ttkv.New()
	fillStore(t, store, 0, 30)
	if _, err := store.ExportRange(5, store.CurrentSeq()); err != nil {
		t.Fatalf("ExportRange: %v", err)
	}
	if _, err := store.ExportRange(0, store.CurrentSeq()+1); !errors.Is(err, ttkv.ErrExportRange) {
		t.Fatalf("ExportRange past head: %v, want ErrExportRange", err)
	}
	if _, err := store.ExportRange(10, 5); !errors.Is(err, ttkv.ErrExportRange) {
		t.Fatalf("inverted ExportRange: %v, want ErrExportRange", err)
	}
}
