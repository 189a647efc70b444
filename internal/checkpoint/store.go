// The tiered store: a versioned checkpoint history across storage tiers
// (tier 0 is where training writes; deeper tiers are filled by
// synchronous Drain calls), each tier indexed by a crash-safe text
// manifest. Restore walks versions newest-first and tiers shallowest-first, verifying
// manifest size/CRC and every per-parameter section before trusting a
// file — a corrupt or torn copy in one tier falls through to the next
// instead of killing the job.
package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"summitscale/internal/nn"
)

// manifestMagic heads every manifest file.
const manifestMagic = "SUMMANIFEST1"

// TierDir names one tier's directory ("nvme", "replica", "gpfs" in the
// platform-priced plans, but any names work).
type TierDir struct {
	Name string
	Dir  string
}

// manifestEntry is one committed version in one tier.
type manifestEntry struct {
	Version int
	File    string
	Bytes   int64
	CRC     uint32
}

// Store is a multi-tier, versioned checkpoint store. All methods are
// safe for concurrent use; drains are serialized so tier directories
// never see two writers.
type Store struct {
	tiers  []TierDir
	retain int

	mu        sync.Mutex
	manifests []map[int]manifestEntry // per tier: version -> entry

	drainMu sync.Mutex // serializes tier-to-tier copies
}

// NewStore opens (or creates) a store over the tier directories, reading
// any existing manifests — reopening over the same directories after a
// crash resumes from whatever was durably committed. retain bounds how
// many versions each tier keeps (minimum 1).
func NewStore(tiers []TierDir, retain int) (*Store, error) {
	if len(tiers) == 0 {
		return nil, errors.New("checkpoint: store needs at least one tier")
	}
	if retain < 1 {
		retain = 1
	}
	s := &Store{tiers: tiers, retain: retain, manifests: make([]map[int]manifestEntry, len(tiers))}
	for i, t := range tiers {
		if err := os.MkdirAll(t.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("checkpoint: tier %s: %w", t.Name, err)
		}
		m, err := readManifest(filepath.Join(t.Dir, "MANIFEST"))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: tier %s: %w", t.Name, err)
		}
		s.manifests[i] = m
	}
	return s, nil
}

// Tiers returns the store's tier layout.
func (s *Store) Tiers() []TierDir { return s.tiers }

// versionFile is the canonical file name for a version within a tier.
func versionFile(version int) string { return fmt.Sprintf("v%08d.ckpt", version) }

// VersionPath returns where a version lives (or would live) in a tier.
func (s *Store) VersionPath(tier, version int) string {
	return filepath.Join(s.tiers[tier].Dir, versionFile(version))
}

// Save commits m as version into tier 0 and prunes versions beyond the
// retention bound. version must increase across calls.
func (s *Store) Save(m nn.Module, version int) error {
	path := s.VersionPath(0, version)
	crc, size, err := WriteFile(m, path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.manifests[0][version] = manifestEntry{Version: version, File: versionFile(version), Bytes: size, CRC: crc}
	s.pruneLocked(0)
	return s.writeManifestLocked(0)
}

// Drain copies version into tier dst from the shallowest tier that holds
// it, verifying the manifest CRC and every per-parameter section first —
// the store refuses to propagate a corrupt checkpoint deeper.
func (s *Store) Drain(version, dst int) error {
	if dst <= 0 || dst >= len(s.tiers) {
		return fmt.Errorf("checkpoint: drain target tier %d out of range", dst)
	}
	s.drainMu.Lock()
	defer s.drainMu.Unlock()

	s.mu.Lock()
	var src = -1
	var want manifestEntry
	for t := 0; t < dst; t++ {
		if e, ok := s.manifests[t][version]; ok {
			src, want = t, e
			break
		}
	}
	already := false
	if _, ok := s.manifests[dst][version]; ok {
		already = true
	}
	s.mu.Unlock()
	if already {
		return nil
	}
	if src < 0 {
		return fmt.Errorf("checkpoint: version %d not present above tier %s", version, s.tiers[dst].Name)
	}

	buf, err := os.ReadFile(s.VersionPath(src, version))
	if err != nil {
		return fmt.Errorf("checkpoint: drain read: %w", err)
	}
	if int64(len(buf)) != want.Bytes {
		return fmt.Errorf("checkpoint: refusing to drain v%d %s->%s: %d bytes on disk, manifest says %d",
			version, s.tiers[src].Name, s.tiers[dst].Name, len(buf), want.Bytes)
	}
	if err := verifyBytes(buf); err != nil {
		return fmt.Errorf("checkpoint: refusing to drain v%d %s->%s: %w",
			version, s.tiers[src].Name, s.tiers[dst].Name, err)
	}

	dstPath := s.VersionPath(dst, version)
	if err := writeDurably(dstPath, buf); err != nil {
		return fmt.Errorf("checkpoint: drain write: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.manifests[dst][version] = want
	s.pruneLocked(dst)
	return s.writeManifestLocked(dst)
}

// DrainAll drains version through every deeper tier in order.
func (s *Store) DrainAll(version int) error {
	for t := 1; t < len(s.tiers); t++ {
		if err := s.Drain(version, t); err != nil {
			return err
		}
	}
	return nil
}

// RestoreInfo says which copy a restore actually used.
type RestoreInfo struct {
	Version  int
	Tier     int
	TierName string
}

// Restore loads the newest restorable version into m, preferring shallow
// (faster) tiers, skipping any copy whose size, whole-file CRC, section
// CRCs, or shape don't check out. It returns what it used, or an error
// describing every candidate it rejected.
func (s *Store) Restore(m nn.Module) (RestoreInfo, error) {
	s.mu.Lock()
	versions := map[int]bool{}
	for _, man := range s.manifests {
		for v := range man {
			versions[v] = true
		}
	}
	order := make([]int, 0, len(versions))
	for v := range versions {
		order = append(order, v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(order)))
	type candidate struct {
		version, tier int
		entry         manifestEntry
	}
	var cands []candidate
	for _, v := range order {
		for t := range s.tiers {
			if e, ok := s.manifests[t][v]; ok {
				cands = append(cands, candidate{v, t, e})
			}
		}
	}
	s.mu.Unlock()

	var rejected []string
	for _, c := range cands {
		path := s.VersionPath(c.tier, c.version)
		if fi, err := os.Stat(path); err != nil || fi.Size() != c.entry.Bytes {
			rejected = append(rejected, fmt.Sprintf("v%d@%s: size/stat mismatch", c.version, s.tiers[c.tier].Name))
			continue
		}
		if err := Load(m, path); err != nil {
			rejected = append(rejected, fmt.Sprintf("v%d@%s: %v", c.version, s.tiers[c.tier].Name, err))
			continue
		}
		return RestoreInfo{Version: c.version, Tier: c.tier, TierName: s.tiers[c.tier].Name}, nil
	}
	if len(rejected) == 0 {
		return RestoreInfo{}, errors.New("checkpoint: store holds no versions")
	}
	return RestoreInfo{}, fmt.Errorf("checkpoint: no restorable version (%s)", strings.Join(rejected, "; "))
}

// Newest returns the highest committed version across all tiers, or -1.
func (s *Store) Newest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	newest := -1
	for _, man := range s.manifests {
		for v := range man {
			if v > newest {
				newest = v
			}
		}
	}
	return newest
}

// Versions lists a tier's committed versions in ascending order.
func (s *Store) Versions(tier int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var vs []int
	for v := range s.manifests[tier] {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// CorruptVersion flips payload bits of a committed copy in place — the
// fault-injection hook for silent-data-corruption experiments. The
// manifest keeps the original CRC, so Restore will reject this copy.
func (s *Store) CorruptVersion(tier, version int, xor byte) error {
	path := s.VersionPath(tier, version)
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(buf) == 0 {
		return fmt.Errorf("checkpoint: cannot corrupt empty %s", path)
	}
	buf[len(buf)/2] ^= xor
	return os.WriteFile(path, buf, 0o644)
}

// TruncateVersion tears a committed copy to frac of its length — a torn
// write caught mid-flight. frac in [0,1).
func (s *Store) TruncateVersion(tier, version int, frac float64) error {
	path := s.VersionPath(tier, version)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, int64(float64(fi.Size())*frac))
}

// Close releases the store. Every drain is synchronous and no file stays
// open between calls, so there is nothing left to wait for or release.
func (s *Store) Close() error { return nil }

// pruneLocked removes versions beyond the retention bound from a tier.
// Callers write the manifest afterwards, so commit and prune cost one
// durable manifest write, not two.
func (s *Store) pruneLocked(tier int) {
	man := s.manifests[tier]
	if len(man) <= s.retain {
		return
	}
	var vs []int
	for v := range man {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	for _, v := range vs[:len(vs)-s.retain] {
		os.Remove(s.VersionPath(tier, v))
		delete(man, v)
	}
}

// writeManifestLocked atomically rewrites a tier's manifest.
func (s *Store) writeManifestLocked(tier int) error {
	man := s.manifests[tier]
	var vs []int
	for v := range man {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	var b strings.Builder
	b.WriteString(manifestMagic + "\n")
	for _, v := range vs {
		e := man[v]
		fmt.Fprintf(&b, "v %d %s %d %d\n", e.Version, e.File, e.Bytes, e.CRC)
	}
	path := filepath.Join(s.tiers[tier].Dir, "MANIFEST")
	if err := writeDurably(path, []byte(b.String())); err != nil {
		return fmt.Errorf("checkpoint: manifest %s: %w", s.tiers[tier].Name, err)
	}
	return nil
}

// readManifest parses a tier manifest; a missing file is an empty tier.
func readManifest(path string) (map[int]manifestEntry, error) {
	man := map[int]manifestEntry{}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return man, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != manifestMagic {
		return nil, fmt.Errorf("manifest %s: bad header", path)
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var e manifestEntry
		if _, err := fmt.Sscanf(line, "v %d %s %d %d", &e.Version, &e.File, &e.Bytes, &e.CRC); err != nil {
			return nil, fmt.Errorf("manifest %s: line %q: %w", path, line, err)
		}
		man[e.Version] = e
	}
	return man, sc.Err()
}

// writeDurably writes bytes via temp file + fsync + atomic rename.
func writeDurably(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
