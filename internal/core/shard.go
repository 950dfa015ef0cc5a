package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// Shards: how a distributed run divides a field among its ranks
// (AssignPartitions) and persists its output.
//
// Each rank streams the partitions it owns into its own, completely
// standard v3 stream — no new container format. A partition's frame is
// stored as a one-partition v2 field archive under a pseudo-field name
// that encodes (real field, partition ID); pseudo-names sort by field and
// then by zero-padded partition ID, so each shard's byte stream is
// deterministic, and every existing stream facility — checkpointed
// writers, RecoverStream salvage, O(1) step seeks — works on shards for
// free.
//
// MergeShards reassembles the per-rank shards into the plain stream a
// single-process run would have written. Because every rank plans on the
// same gathered, partition-ID-ordered feature vector (invariant to rank
// count and ownership) and the merge orders partitions by ID, the merged
// archive is
// byte-identical to the single-process golden — even when a rank died
// mid-run, its partitions were rebalanced, and its torn shard contains a
// stale copy of the retried step.

// AssignPartitions deterministically shards nParts partitions across the
// alive ranks: partition i goes to alive[i mod len(alive)] (alive sorted
// ascending first). With all ranks alive this is the familiar round-robin
// by rank; after a failure the survivors' shares are recomputed from the
// same rule, so every rank derives the identical assignment with no
// negotiation. Returns the owned partition IDs (ascending) per rank.
func AssignPartitions(nParts int, alive []int) map[int][]int {
	ranks := append([]int(nil), alive...)
	sort.Ints(ranks)
	owned := make(map[int][]int, len(ranks))
	for _, r := range ranks {
		owned[r] = nil
	}
	if len(ranks) == 0 {
		return owned
	}
	for i := 0; i < nParts; i++ {
		r := ranks[i%len(ranks)]
		owned[r] = append(owned[r], i)
	}
	return owned
}

// OwnedPartitions returns the partitions of f this rank owns under
// AssignPartitions over the communicator's alive set. A nil communicator is
// the one-rank world: it owns every partition, reported as nil (the form
// ScanOwned and CompressOwned read as "all").
func (e *Engine) OwnedPartitions(c *mpi.Comm, f *grid.Field3D) ([]int, error) {
	if c == nil {
		return nil, nil
	}
	p, err := e.partitioner(f)
	if err != nil {
		return nil, err
	}
	alive := c.Alive()
	if p.Count() < len(alive) {
		return nil, fmt.Errorf("core: %w: field %s has %d partitions for %d ranks — every rank must own at least one",
			apierr.ErrBadConfig, f, p.Count(), len(alive))
	}
	return AssignPartitions(p.Count(), alive)[c.Rank()], nil
}

// shardNameSep separates the real field name from the partition suffix in
// a shard pseudo-field name. The unit separator cannot appear in sane
// field names and sorts below every printable byte.
const shardNameSep = "\x1f"

// ShardFieldName builds the pseudo-field name under which one partition's
// frame is stored in a rank's shard stream.
func ShardFieldName(field string, part int) string {
	return fmt.Sprintf("%s%sp%08d", field, shardNameSep, part)
}

// ParseShardFieldName reverses ShardFieldName.
func ParseShardFieldName(name string) (field string, part int, ok bool) {
	i := strings.LastIndex(name, shardNameSep)
	if i < 0 || i == 0 {
		return "", 0, false
	}
	var p int
	if _, err := fmt.Sscanf(name[i+len(shardNameSep):], "p%08d", &p); err != nil || p < 0 {
		return "", 0, false
	}
	return name[:i], p, true
}

// ShardStepFields converts one rank's shares of a step's fields
// (CompressOwned: each carries frames for the partitions the rank owns, nil
// elsewhere) into the block its shard stream stores for the step
// (StreamWriter.WriteStep): one single-partition CompressedField per frame
// present, under its pseudo-field name.
func ShardStepFields(shares map[string]*CompressedField) (map[string]*CompressedField, error) {
	out := make(map[string]*CompressedField)
	for field, cf := range shares {
		if strings.Contains(field, shardNameSep) {
			return nil, fmt.Errorf("core: %w: field name %q contains the shard separator", apierr.ErrBadConfig, field)
		}
		for pi, fr := range cf.Parts {
			if fr == nil {
				continue
			}
			out[ShardFieldName(field, pi)] = &CompressedField{
				Nx: cf.Nx, Ny: cf.Ny, Nz: cf.Nz,
				PartitionDim: cf.PartitionDim,
				Codec:        fr.CodecID(),
				Parts:        []codec.Frame{fr},
			}
		}
	}
	return out, nil
}

// ShardInput is one rank's shard stream handed to MergeShards.
type ShardInput struct {
	R    io.ReaderAt
	Size int64
}

// MergeReport describes what MergeShards assembled.
type MergeReport struct {
	// Steps is the number of merged steps written.
	Steps int
	// SalvagedShards counts input shards whose footer was missing or torn
	// (a dead rank's stream) and that were recovered by scan.
	SalvagedShards int
	// DuplicateParts counts byte-identical duplicate partition frames that
	// were deduplicated — the residue of a step that was half-written
	// before a failure and rewritten by the post-rebalance retry.
	DuplicateParts int
}

// MergeShards reassembles per-rank shard streams into one plain v3 stream
// on w, identical to what a single-process run would write. Torn shards
// are salvaged first (RecoverStream), so the shard a killed rank left
// behind merges as far as it got. The merged step count is the maximum
// across shards; every partition of every field must be present exactly
// once per step — duplicates are tolerated only if byte-identical (a stale
// retried step), anything else is corruption.
//
// nParts is the partition count every field must tile to (0 skips the
// completeness check — but then a missing partition surfaces only at
// decompression).
func MergeShards(w io.Writer, shards []ShardInput, nParts int) (*MergeReport, error) {
	return MergeShardsWith(w, shards, nParts, codec.Default)
}

// MergeShardsWith is MergeShards against a specific codec registry.
func MergeShardsWith(w io.Writer, shards []ShardInput, nParts int, reg *codec.Registry) (*MergeReport, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: %w: no shards to merge", apierr.ErrBadConfig)
	}
	rep := &MergeReport{}
	readers := make([]*StreamReader, 0, len(shards))
	for i, sh := range shards {
		sr, rrep, err := RecoverStreamWith(sh.R, sh.Size, reg)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		if !rrep.Clean {
			rep.SalvagedShards++
		}
		readers = append(readers, sr)
	}
	nSteps := 0
	for _, sr := range readers {
		if sr.Steps() > nSteps {
			nSteps = sr.Steps()
		}
	}

	sw, err := NewStreamWriter(w)
	if err != nil {
		return nil, err
	}
	for s := 0; s < nSteps; s++ {
		merged, err := mergeStep(readers, s, nParts, rep)
		if err != nil {
			return nil, err
		}
		if err := sw.WriteStep(merged); err != nil {
			return nil, err
		}
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	rep.Steps = nSteps
	return rep, nil
}

// mergeStep collects step s's pseudo-fields from every shard that has it
// and reassembles the real fields, partitions in ID order.
func mergeStep(readers []*StreamReader, s, nParts int, rep *MergeReport) (map[string]*CompressedField, error) {
	byField := make(map[string]map[int]*CompressedField)
	for ri, sr := range readers {
		if s >= sr.Steps() {
			continue
		}
		fields, err := sr.ReadStep(s)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d step %d: %w", ri, s, err)
		}
		for name, cf := range fields {
			field, part, ok := ParseShardFieldName(name)
			if !ok {
				return nil, fmt.Errorf("core: %w: shard %d step %d has non-shard field %q", errCorrupt, ri, s, name)
			}
			if len(cf.Parts) != 1 {
				return nil, fmt.Errorf("core: %w: shard %d step %d field %q holds %d partitions, want 1",
					errCorrupt, ri, s, name, len(cf.Parts))
			}
			slots := byField[field]
			if slots == nil {
				slots = make(map[int]*CompressedField)
				byField[field] = slots
			}
			if prev, dup := slots[part]; dup {
				// A stale copy from a shard whose rank died before the
				// step committed. Determinism makes the retry's frame
				// byte-identical, so an exact match is expected residue;
				// anything else means the shards disagree about the data.
				// Only duplicates pay for serializing their frames.
				if !bytes.Equal(codec.EncodeFrame(prev.Parts[0]), codec.EncodeFrame(cf.Parts[0])) ||
					prev.Nx != cf.Nx || prev.Ny != cf.Ny || prev.Nz != cf.Nz || prev.PartitionDim != cf.PartitionDim {
					return nil, fmt.Errorf("core: %w: step %d field %q partition %d differs between shards",
						errCorrupt, s, field, part)
				}
				rep.DuplicateParts++
				continue
			}
			slots[part] = cf
		}
	}
	if len(byField) == 0 {
		return nil, fmt.Errorf("core: %w: merged step %d has no fields", errCorrupt, s)
	}

	merged := make(map[string]*CompressedField, len(byField))
	fieldNames := make([]string, 0, len(byField))
	for f := range byField {
		fieldNames = append(fieldNames, f)
	}
	sort.Strings(fieldNames)
	for _, field := range fieldNames {
		slots := byField[field]
		want := nParts
		if want == 0 {
			want = len(slots)
		}
		parts := make([]codec.Frame, want)
		var geom *CompressedField
		for id, cf := range slots {
			if id >= want {
				return nil, fmt.Errorf("core: %w: step %d field %q partition %d outside [0,%d)",
					errCorrupt, s, field, id, want)
			}
			parts[id] = cf.Parts[0]
			if geom == nil {
				geom = cf
			} else if geom.Nx != cf.Nx || geom.Ny != cf.Ny || geom.Nz != cf.Nz ||
				geom.PartitionDim != cf.PartitionDim {
				return nil, fmt.Errorf("core: %w: step %d field %q has inconsistent geometry across shards",
					errCorrupt, s, field)
			}
		}
		for id, fr := range parts {
			if fr == nil {
				return nil, fmt.Errorf("core: %w: step %d field %q is missing partition %d",
					errCorrupt, s, field, id)
			}
		}
		merged[field] = &CompressedField{
			Nx: geom.Nx, Ny: geom.Ny, Nz: geom.Nz,
			PartitionDim: geom.PartitionDim,
			Codec:        parts[0].CodecID(),
			Parts:        parts,
		}
	}
	return merged, nil
}
