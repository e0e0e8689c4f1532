package trace

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// fuzzSeedTrace is a small trace covering every field shape the binary
// codec serializes.
func fuzzSeedTrace() *Trace {
	t0 := time.Date(2013, 9, 1, 10, 0, 0, 0, time.UTC)
	return &Trace{
		Name: "fuzz-seed",
		Events: []Event{
			{Time: t0, Op: OpWrite, Store: StoreRegistry, App: "msword", User: "u1", Key: `HKCU\Software\W`, Value: "REG_DWORD:1"},
			{Time: t0.Add(time.Second), Op: OpRead, Store: StoreGConf, App: "evolution", Key: "/apps/e/k"},
			{Time: t0.Add(2 * time.Second), Op: OpDelete, Store: StoreFile, App: "vlc", User: "u2", Key: "~/.config/vlc/vlcrc:general.volume", Value: ""},
			{Time: time.Unix(0, -1).UTC(), Op: OpWrite, Store: StoreGConf, App: "", Key: "", Value: string([]byte{0, 255, 10, 13})},
		},
	}
}

// FuzzReadBinary feeds arbitrary bytes through the binary trace decoder
// and checks the codec's internal consistency:
//
//  1. The batch decoder (ReadBinary) and the streaming decoders
//     (ReadBinaryStream, ReadBinaryStreamMeta) accept exactly the same
//     inputs and agree on every decoded event.
//  2. Whatever decodes successfully re-encodes (WriteBinary) and decodes
//     again to the identical trace — the codec cannot silently lose or
//     alter data it accepted.
//
// The decoder must never panic or over-allocate regardless of input; the
// corrupt-count and string-length caps are what this mainly hammers.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("OCTR"))
	f.Add([]byte{})
	// Header with a huge declared event count and no payload.
	hdr := append([]byte("OCTR"), 1, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)
	f.Add(hdr)
	if seed.Len() > 15 {
		f.Add(seed.Bytes()[:12])           // truncated mid-header
		f.Add(seed.Bytes()[:seed.Len()-3]) // truncated mid-events
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, batchErr := ReadBinary(bytes.NewReader(data))

		var streamed []Event
		streamName, streamErr := ReadBinaryStream(bytes.NewReader(data), func(ev Event) error {
			streamed = append(streamed, ev)
			return nil
		})
		if (batchErr == nil) != (streamErr == nil) {
			t.Fatalf("batch/stream disagree: batch=%v stream=%v", batchErr, streamErr)
		}
		var metaCount int
		_, metaErr := ReadBinaryStreamMeta(bytes.NewReader(data), func(Event) error {
			metaCount++
			return nil
		})
		if (batchErr == nil) != (metaErr == nil) {
			t.Fatalf("batch/meta disagree: batch=%v meta=%v", batchErr, metaErr)
		}
		if batchErr != nil {
			return
		}
		if streamName != tr.Name {
			t.Fatalf("stream name %q != batch name %q", streamName, tr.Name)
		}
		if len(streamed) != len(tr.Events) || metaCount != len(tr.Events) {
			t.Fatalf("stream decoded %d events, meta %d, batch %d", len(streamed), metaCount, len(tr.Events))
		}
		for i := range streamed {
			if !streamed[i].Time.Equal(tr.Events[i].Time) || streamed[i].Op != tr.Events[i].Op ||
				streamed[i].Store != tr.Events[i].Store || streamed[i].App != tr.Events[i].App ||
				streamed[i].User != tr.Events[i].User || streamed[i].Key != tr.Events[i].Key ||
				streamed[i].Value != tr.Events[i].Value {
				t.Fatalf("event %d: stream %+v != batch %+v", i, streamed[i], tr.Events[i])
			}
		}

		// Re-encode/decode roundtrip.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("re-encoding accepted trace: %v", err)
		}
		tr2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding re-encoded trace: %v", err)
		}
		if tr2.Name != tr.Name || len(tr2.Events) != len(tr.Events) {
			t.Fatalf("roundtrip shape changed: %q/%d vs %q/%d", tr2.Name, len(tr2.Events), tr.Name, len(tr.Events))
		}
		if len(tr.Events) > 0 && !reflect.DeepEqual(tr2.Events, tr.Events) {
			t.Fatalf("roundtrip altered events:\n%+v\nvs\n%+v", tr2.Events, tr.Events)
		}
	})
}

// fuzzWindows are the window sizes FuzzStreamWindower picks from: zero,
// sub-second, the paper's default, and wider than the reorder horizon.
var fuzzWindows = []time.Duration{0, 500 * time.Millisecond, time.Second, 3 * time.Second}

// decodeFuzzEvents turns fuzz bytes into windowing parameters and an event
// list. data[0] picks the window, data[1]'s low bit the mode; each
// following 4-byte record is one event: a time offset in 100 ms steps
// (0–25.5 s, unsorted), a key, an application and an op (writes, deletes
// and reads).
func decodeFuzzEvents(data []byte) (time.Duration, GroupMode, []Event) {
	if len(data) < 2 {
		return time.Second, GroupAnchored, nil
	}
	window := fuzzWindows[int(data[0])%len(fuzzWindows)]
	mode := GroupAnchored
	if data[1]&1 == 1 {
		mode = GroupChained
	}
	apps := []string{"alpha", "beta", "gamma"}
	ops := []Op{OpWrite, OpWrite, OpDelete, OpRead}
	var evs []Event
	for rec := data[2:]; len(rec) >= 4; rec = rec[4:] {
		evs = append(evs, Event{
			Time: t0.Add(time.Duration(rec[0]) * 100 * time.Millisecond),
			Op:   ops[rec[3]%4],
			App:  apps[rec[2]%3],
			Key:  fmt.Sprintf("k%d", rec[1]%8),
		})
	}
	return window, mode, evs
}

// FuzzStreamWindower holds the shipped windower to the batch oracle on
// arbitrary event lists: the oracle's groups for the time-sorted list must
// equal StreamWindower's (after SortGroups) both when the sorted list is
// pushed with a zero horizon — what core.StatsOf does — and when a
// shuffle that keeps every event within the default horizon of its sorted
// position is pushed with the default horizon — what the live engine sees.
func FuzzStreamWindower(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 1, 5, 1, 0, 0, 5, 2, 1, 0, 5, 3, 2, 3, 6, 1, 0, 2})
	f.Add([]byte{3, 1, 30, 1, 0, 0, 20, 2, 0, 0, 10, 3, 0, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		window, mode, evs := decodeFuzzEvents(data)
		sorted := &Trace{Events: evs}
		sorted.SortByTime()
		want := NewWindower(window, mode).GroupTrace(sorted)

		if got := collectStream(sorted, window, mode, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("sorted, horizon 0 (window %v, %v):\n got %+v\nwant %+v", window, mode, got, want)
		}
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		shuffled := shuffleWithin(rng, sorted, DefaultHorizon)
		if got := collectStream(shuffled, window, mode, DefaultHorizon); !reflect.DeepEqual(got, want) {
			t.Fatalf("shuffled, default horizon (window %v, %v):\n got %+v\nwant %+v", window, mode, got, want)
		}
	})
}
