package lsh

import (
	"fmt"
	"math"
)

// The paper observes that "tuning appropriate parameters k, L for a given
// dataset whose data distribution has diverse local density patterns
// remains a tedious process". Advise automates the standard E2LSH-style
// search: given the family's collision probabilities at the target radius
// r and at the background distance, it scans table counts L and, for each,
// the paper's k(L) = ⌈log(1−δ^{1/L})/log p₁⌉, scoring each candidate with
// the cost model's expected query cost. The hybrid index makes a bad
// choice survivable; Advise makes a good choice cheap to find.

// AdvisorInput describes one tuning problem.
type AdvisorInput struct {
	// N is the dataset size.
	N int
	// P1 is the family's collision probability at the target radius
	// (family.CollisionProb(r)).
	P1 float64
	// PBackground is the collision probability at a typical background
	// (non-neighbor) distance; estimate it from a data sample with
	// EstimateBackgroundProb or supply family.CollisionProb(d̄).
	PBackground float64
	// Delta is the per-point failure budget δ (default 0.1).
	Delta float64
	// MaxL caps the table budget (default 200).
	MaxL int
	// Alpha and Beta are the cost-model constants (default 1 and 8).
	Alpha, Beta float64
	// ExpectedNeighbors is the anticipated output size per query (used
	// for the S3 term; default max(1, N/1000)).
	ExpectedNeighbors float64
}

// Advice is one recommended configuration with its predicted costs.
type Advice struct {
	K, L int
	// MissProb is the guaranteed worst-case per-neighbor miss probability
	// (1−p₁^k)^L at the chosen parameters.
	MissProb float64
	// ExpectedCollisions estimates Σ bucket sizes per query:
	// L·(neighbors·p₁^k + background·p₂^k).
	ExpectedCollisions float64
	// QueryCost is the cost-model value α·collisions + β·candidates the
	// advisor minimized.
	QueryCost float64
	// HashCost counts base-function evaluations per query (k·L), the S1
	// term — reported so callers can see the trade the advisor made.
	HashCost int
}

func (in AdvisorInput) withDefaults() (AdvisorInput, error) {
	if in.N <= 0 {
		return in, fmt.Errorf("lsh: AdvisorInput.N = %d, want > 0", in.N)
	}
	if in.P1 <= 0 || in.P1 >= 1 {
		return in, fmt.Errorf("lsh: AdvisorInput.P1 = %v, want in (0,1)", in.P1)
	}
	if in.PBackground <= 0 || in.PBackground >= 1 {
		return in, fmt.Errorf("lsh: AdvisorInput.PBackground = %v, want in (0,1)", in.PBackground)
	}
	if in.PBackground > in.P1 {
		return in, fmt.Errorf("lsh: PBackground %v exceeds P1 %v (background must be farther than r)", in.PBackground, in.P1)
	}
	if in.Delta == 0 {
		in.Delta = 0.1
	}
	if in.Delta <= 0 || in.Delta >= 1 {
		return in, fmt.Errorf("lsh: AdvisorInput.Delta = %v, want in (0,1)", in.Delta)
	}
	if in.MaxL == 0 {
		in.MaxL = 200
	}
	if in.MaxL < 1 {
		return in, fmt.Errorf("lsh: AdvisorInput.MaxL = %d, want >= 1", in.MaxL)
	}
	if in.Alpha == 0 {
		in.Alpha = 1
	}
	if in.Beta == 0 {
		in.Beta = 8
	}
	if in.Alpha < 0 || in.Beta < 0 {
		return in, fmt.Errorf("lsh: negative cost constants %v/%v", in.Alpha, in.Beta)
	}
	if in.ExpectedNeighbors == 0 {
		in.ExpectedNeighbors = math.Max(1, float64(in.N)/1000)
	}
	return in, nil
}

// Advise returns the (k, L) configuration minimizing the predicted query
// cost subject to the δ recall budget, plus the runner-up list sorted by
// cost (useful for trading memory against speed by picking a smaller L).
func Advise(in AdvisorInput) (best Advice, ranked []Advice, err error) {
	in, err = in.withDefaults()
	if err != nil {
		return Advice{}, nil, err
	}
	background := float64(in.N) - in.ExpectedNeighbors
	if background < 0 {
		background = 0
	}
	for L := 1; L <= in.MaxL; L++ {
		k := SolveK(in.P1, in.Delta, L)
		nearColl := float64(in.ExpectedNeighbors * math.Pow(in.P1, float64(k)))
		farColl := float64(background * math.Pow(in.PBackground, float64(k)))
		collisions := float64(L) * (nearColl + farColl)
		// Distinct candidates ≤ collisions; approximate with the
		// inclusion probability per point.
		candidates := float64(in.ExpectedNeighbors*(1-math.Pow(1-math.Pow(in.P1, float64(k)), float64(L)))) +
			float64(background*(1-math.Pow(1-math.Pow(in.PBackground, float64(k)), float64(L))))
		a := Advice{
			K:                  k,
			L:                  L,
			MissProb:           MissProb(in.P1, k, L),
			ExpectedCollisions: collisions,
			QueryCost:          float64(in.Alpha*collisions) + float64(in.Beta*candidates),
			HashCost:           k * L,
		}
		ranked = append(ranked, a)
	}
	// Stable selection: smallest cost wins; ties go to the smaller L
	// (less memory).
	bestIdx := 0
	for i := range ranked {
		if ranked[i].QueryCost < ranked[bestIdx].QueryCost {
			bestIdx = i
		}
	}
	return ranked[bestIdx], ranked, nil
}

// EstimateBackgroundProb estimates the mean single-function collision
// probability between random non-neighbor pairs by averaging the family's
// CollisionProb over sampled pairwise distances. Pass pair distances from
// a data sample (e.g. 1000 random pairs).
func EstimateBackgroundProb[P any](fam Family[P], pairDistances []float64) (float64, error) {
	if len(pairDistances) == 0 {
		return 0, fmt.Errorf("lsh: EstimateBackgroundProb with no sample distances")
	}
	var sum float64
	for _, d := range pairDistances {
		sum += fam.CollisionProb(d)
	}
	p := sum / float64(len(pairDistances))
	if p <= 0 {
		// Every sampled pair was beyond the family's support: clamp to a
		// tiny positive value so Advise's math stays defined.
		p = 1e-9
	}
	if p >= 1 {
		p = 1 - 1e-9
	}
	return p, nil
}
