package congest

// splitmix64 is a tiny O(1)-seed rand.Source64. math/rand's default
// lagged-Fibonacci source pays an ~600-word table initialization per seed,
// which dominated whole-run profiles on small networks, while splitmix64
// seeds in one word and has excellent statistical quality for simulation
// workloads (it is the seeding generator recommended for the xoshiro
// family).
type splitmix64 struct{ x uint64 }

func (s *splitmix64) Uint64() uint64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.x = uint64(seed) }

// nodeSeed derives the per-node RNG seed from the run seed. The constant
// mixing keeps distinct nodes on distinct streams and distinct run seeds on
// distinct per-node streams. Context.Rand seeds a node's RNG with it on
// the node's first call in a run.
func nodeSeed(runSeed int64, u int) int64 {
	return runSeed ^ (int64(u)*0x5E3779B97F4A7C15 + 0x1234567)
}
