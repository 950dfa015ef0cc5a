package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/grid"
)

func TestShardFieldNameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		field string
		part  int
	}{
		{"baryon_density", 0},
		{"temperature", 7},
		{"x", 12345678},
	} {
		name := ShardFieldName(tc.field, tc.part)
		f, p, ok := ParseShardFieldName(name)
		if !ok || f != tc.field || p != tc.part {
			t.Errorf("round trip %q/%d -> %q -> %q/%d/%v", tc.field, tc.part, name, f, p, ok)
		}
	}
	// Pseudo-names must sort by field, then by partition ID, so that each
	// shard's step block (sorted by name) is deterministic.
	names := []string{
		ShardFieldName("b", 2), ShardFieldName("a", 10), ShardFieldName("a", 9), ShardFieldName("b", 0),
	}
	sort.Strings(names)
	want := []string{
		ShardFieldName("a", 9), ShardFieldName("a", 10), ShardFieldName("b", 0), ShardFieldName("b", 2),
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("sort order %v, want %v", names, want)
		}
	}
	for _, bad := range []string{"plain", "\x1fp00000001", "f\x1fnope", "f\x1fp-0000001", ""} {
		if _, _, ok := ParseShardFieldName(bad); ok {
			t.Errorf("ParseShardFieldName(%q) accepted", bad)
		}
	}
}

// shardCube builds a deterministic 16^3 field whose values vary per step.
func shardCube(step int) *grid.Field3D {
	f := grid.NewCube(16)
	for i := range f.Data {
		x, y, z := f.Coords(i)
		f.Data[i] = float32(step+1) * float32(x+2*y+3*z+1)
	}
	return f
}

// shardFixture compresses nSteps of two fields and returns the golden
// single-process stream plus the per-step CompressedFields.
func shardFixture(t *testing.T, nSteps int) (golden []byte, steps []map[string]*CompressedField, nParts int) {
	t.Helper()
	e := engine(t, Config{PartitionDim: 8})
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < nSteps; s++ {
		rho, err := e.CompressStatic(context.Background(), shardCube(s), 0.25)
		if err != nil {
			t.Fatal(err)
		}
		tem, err := e.CompressStatic(context.Background(), shardCube(s+100), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		step := map[string]*CompressedField{"rho": rho, "temperature": tem}
		steps = append(steps, step)
		if err := sw.WriteStep(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	nParts = len(steps[0]["rho"].Parts)
	if nParts < 4 {
		t.Fatalf("fixture has only %d partitions", nParts)
	}
	return buf.Bytes(), steps, nParts
}

// shares is the part of a step a rank owning the listed partitions holds.
func shares(step map[string]*CompressedField, owned []int) map[string]*CompressedField {
	out := make(map[string]*CompressedField, len(step))
	for field, cf := range step {
		sh := *cf
		sh.Parts = make([]codec.Frame, len(cf.Parts))
		for _, pi := range owned {
			sh.Parts[pi] = cf.Parts[pi]
		}
		out[field] = &sh
	}
	return out
}

// writeShard writes one rank's shard stream covering `owned` partitions of
// every field for steps [0, upto). Close is skipped when torn is set,
// leaving a footerless stream like the one a killed rank leaves behind.
func writeShard(t *testing.T, steps []map[string]*CompressedField, owned []int, upto int, torn bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < upto; s++ {
		block, err := ShardStepFields(shares(steps[s], owned))
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteStep(block); err != nil {
			t.Fatal(err)
		}
	}
	if !torn {
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func shardInputs(bufs ...[]byte) []ShardInput {
	var in []ShardInput
	for _, b := range bufs {
		in = append(in, ShardInput{R: bytes.NewReader(b), Size: int64(len(b))})
	}
	return in
}

func TestMergeShardsByteIdentical(t *testing.T) {
	golden, steps, nParts := shardFixture(t, 3)
	assign := AssignPartitions(nParts, []int{0, 1, 2})
	var bufs [][]byte
	for r := 0; r < 3; r++ {
		bufs = append(bufs, writeShard(t, steps, assign[r], len(steps), false))
	}
	var out bytes.Buffer
	rep, err := MergeShards(&out, shardInputs(bufs...), nParts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 3 || rep.SalvagedShards != 0 || rep.DuplicateParts != 0 {
		t.Fatalf("report %+v, want 3 steps, 0 salvaged, 0 duplicates", *rep)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatalf("merged stream differs from single-process golden (%d vs %d bytes)", out.Len(), len(golden))
	}
}

func TestMergeShardsSalvagesTornShardAndDedupes(t *testing.T) {
	golden, steps, nParts := shardFixture(t, 3)
	// Rank 1 died after writing its share of steps 0-2 but before the
	// stream footer landed. The survivors rebalanced: rank 0 retried step 2
	// carrying rank 1's partitions too, so those frames exist twice.
	assign := AssignPartitions(nParts, []int{0, 1})
	full := writeShard(t, steps, assign[0], 2, false) // rank 0, steps 0-1 as planned
	// rank 0's stream continues with the rebalanced step 2 owning everything.
	reassigned := AssignPartitions(nParts, []int{0})
	rank0 := rewriteShardWithExtraStep(t, full, steps, reassigned[0])
	rank1 := writeShard(t, steps, assign[1], 3, true) // torn: all 3 steps, no footer
	var out bytes.Buffer
	rep, err := MergeShards(&out, shardInputs(rank0, rank1), nParts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 3 {
		t.Fatalf("merged %d steps, want 3", rep.Steps)
	}
	if rep.SalvagedShards != 1 {
		t.Fatalf("salvaged %d shards, want 1", rep.SalvagedShards)
	}
	wantDup := len(assign[1]) * len(steps[2]) // rank 1's partitions, per field, at step 2
	if rep.DuplicateParts != wantDup {
		t.Fatalf("deduplicated %d parts, want %d", rep.DuplicateParts, wantDup)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatal("merged stream with salvage+dedupe differs from golden")
	}
}

// rewriteShardWithExtraStep rebuilds rank 0's shard: the prefix already in
// buf, plus a rebalanced step 2 covering `owned`.
func rewriteShardWithExtraStep(t *testing.T, prefix []byte, steps []map[string]*CompressedField, owned []int) []byte {
	t.Helper()
	sr, _, err := RecoverStream(bytes.NewReader(prefix), int64(len(prefix)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sr.Steps(); s++ {
		fields, err := sr.ReadStep(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteStep(fields); err != nil {
			t.Fatal(err)
		}
	}
	block, err := ShardStepFields(shares(steps[2], owned))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteStep(block); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMergeShardsMissingPartitionIsCorruption(t *testing.T) {
	_, steps, nParts := shardFixture(t, 1)
	assign := AssignPartitions(nParts, []int{0, 1})
	only0 := writeShard(t, steps, assign[0], 1, false)
	var out bytes.Buffer
	_, err := MergeShards(&out, shardInputs(only0), nParts)
	if !errors.Is(err, apierr.ErrCorruptArchive) {
		t.Fatalf("missing partitions: err = %v, want ErrCorruptArchive", err)
	}
}

func TestMergeShardsConflictingDuplicateIsCorruption(t *testing.T) {
	_, steps, nParts := shardFixture(t, 1)
	all := make([]int, nParts)
	for i := range all {
		all[i] = i
	}
	a := writeShard(t, steps, all, 1, false)
	// Second shard claims the same partitions but with different bytes.
	altered := []map[string]*CompressedField{{
		"rho":         mustStatic(t, shardCube(42), 0.25),
		"temperature": steps[0]["temperature"],
	}}
	b := writeShard(t, altered, all, 1, false)
	var out bytes.Buffer
	_, err := MergeShards(&out, shardInputs(a, b), nParts)
	if !errors.Is(err, apierr.ErrCorruptArchive) {
		t.Fatalf("conflicting duplicate: err = %v, want ErrCorruptArchive", err)
	}
}

func mustStatic(t *testing.T, f *grid.Field3D, eb float64) *CompressedField {
	t.Helper()
	e := engine(t, Config{PartitionDim: 8})
	cf, err := e.CompressStatic(context.Background(), f, eb)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

func TestMergeShardsRejectsPlainFieldNames(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteStep(map[string]*CompressedField{"plain": mustStatic(t, shardCube(0), 0.5)}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = MergeShards(&out, shardInputs(buf.Bytes()), 0)
	if !errors.Is(err, apierr.ErrCorruptArchive) {
		t.Fatalf("plain field name: err = %v, want ErrCorruptArchive", err)
	}
}

func TestShardStepFields(t *testing.T) {
	step := map[string]*CompressedField{"ok": mustStatic(t, shardCube(0), 0.5)}
	m, err := ShardStepFields(shares(step, []int{1, 4}))
	if err != nil || len(m) != 2 || m[ShardFieldName("ok", 1)] == nil || m[ShardFieldName("ok", 4)] == nil {
		t.Errorf("share of partitions 1 and 4 became %d pseudo-fields (err %v)", len(m), err)
	}
	step["a\x1fb"] = step["ok"]
	if _, err := ShardStepFields(step); !errors.Is(err, apierr.ErrBadConfig) {
		t.Errorf("separator in field name: err = %v, want ErrBadConfig", err)
	}
}

func TestTruncateSteps(t *testing.T) {
	dir := t.TempDir()
	_, steps, _ := shardFixture(t, 3)

	write := func(path string, upto int, tail bool) []byte {
		t.Helper()
		fh, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		sw, err := NewStreamWriter(fh)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < upto; s++ {
			if err := sw.WriteStep(steps[s]); err != nil {
				t.Fatal(err)
			}
		}
		if tail {
			// Write a wrong step 1 and 2, roll them back, then write the
			// real ones — the file must come out as if nothing happened.
			for s := 1; s < 3; s++ {
				if err := sw.WriteStep(steps[3-1-s]); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.TruncateSteps(1); err != nil {
				t.Fatal(err)
			}
			if sw.Steps() != 1 {
				t.Fatalf("after truncate writer reports %d steps, want 1", sw.Steps())
			}
			for s := 1; s < 3; s++ {
				if err := sw.WriteStep(steps[s]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	golden := write(filepath.Join(dir, "golden.acs"), 3, false)
	redone := write(filepath.Join(dir, "redone.acs"), 1, true)
	if !bytes.Equal(golden, redone) {
		t.Fatalf("truncate-and-rewrite stream differs from straight-through stream (%d vs %d bytes)",
			len(redone), len(golden))
	}

	// The rewritten stream must reopen clean.
	sr, err := OpenStream(bytes.NewReader(redone), int64(len(redone)))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Steps() != 3 {
		t.Fatalf("reopened stream has %d steps, want 3", sr.Steps())
	}

	// Out-of-range and unsupported-writer cases.
	fh, err := os.Create(filepath.Join(dir, "range.acs"))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	sw, err := NewStreamWriter(fh)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteStep(steps[0]); err != nil {
		t.Fatal(err)
	}
	if err := sw.TruncateSteps(2); err == nil {
		t.Error("truncate beyond step count accepted")
	}
	if err := sw.TruncateSteps(-1); err == nil {
		t.Error("negative truncate accepted")
	}
	if err := sw.TruncateSteps(1); err != nil {
		t.Errorf("no-op truncate: %v", err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	bw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteStep(steps[0]); err != nil {
		t.Fatal(err)
	}
	if err := bw.TruncateSteps(0); err == nil {
		t.Error("TruncateSteps on a non-truncatable writer accepted")
	}
}
