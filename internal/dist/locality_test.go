package dist_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/structured"
)

func necklace(t *testing.T, m int) *structured.Instance {
	t.Helper()
	s, err := structured.FromMMLP(gen.TriNecklace(m))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDistRoundsFormula asserts the defining locality property: the round
// count is 12(R−2)+8, a function of R alone, for every protocol and every
// instance size.
func TestDistRoundsFormula(t *testing.T) {
	for _, pr := range protocols {
		for _, R := range []int{2, 3, 4} {
			want := 12*(R-2) + 8
			for _, m := range []int{4, 8, 16} {
				res, err := pr.run(context.Background(), necklace(t, m), core.Options{R: R})
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds != want {
					t.Fatalf("%s m=%d R=%d: rounds = %d, want %d", pr.name, m, R, res.Rounds, want)
				}
				if len(res.Stats.PerRound) != want {
					t.Fatalf("%s m=%d R=%d: %d per-round entries, want %d",
						pr.name, m, R, len(res.Stats.PerRound), want)
				}
			}
		}
	}
}

// TestDistMaxMessageLocality asserts the second locality property: the
// largest message grows with R (the views deepen) but not with the
// instance size m — on the band-symmetric necklace family the
// view-gathering traffic is exactly identical for every m.
func TestDistMaxMessageLocality(t *testing.T) {
	for _, pr := range protocols {
		t.Run(pr.name, func(t *testing.T) {
			prev := 0
			for _, R := range []int{2, 3, 4} {
				// The necklace wraps radius-Θ(R) neighbourhoods only below
				// m=8, so the records protocol's frontier batches saturate
				// from there; views are band-symmetric for every m.
				sizes := []int{8, 16, 24}
				var base int
				for i, m := range sizes {
					res, err := pr.run(context.Background(), necklace(t, m), core.Options{R: R})
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						base = res.Stats.MaxMessageBytes
					} else if res.Stats.MaxMessageBytes != base {
						t.Fatalf("R=%d: max message %d B at m=%d but %d B at m=%d",
							R, base, sizes[0], res.Stats.MaxMessageBytes, m)
					}
				}
				// Views deepen with R, so their largest message strictly
				// grows; record batches are bounded by the gossip frontier,
				// which saturates.
				if pr.name == "views" && base <= prev {
					t.Fatalf("R=%d: max message %d B did not grow from %d B at the previous R", R, base, prev)
				}
				prev = base
			}
		})
	}
}

// TestDistPerRoundAccounting asserts the traffic bookkeeping invariants:
// per-round statistics sum to the totals, the maximum message is the
// maximum over rounds, and the final round carries no messages.
func TestDistPerRoundAccounting(t *testing.T) {
	for _, pr := range protocols {
		for _, R := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/R=%d", pr.name, R), func(t *testing.T) {
				res, err := pr.run(context.Background(), necklace(t, 6), core.Options{R: R})
				if err != nil {
					t.Fatal(err)
				}
				var msgs, bytes, comp, max int
				for _, rs := range res.Stats.PerRound {
					msgs += rs.Messages
					bytes += rs.Bytes
					comp += rs.CompressedBytes
					if rs.MaxBytes > max {
						max = rs.MaxBytes
					}
					if (rs.Messages == 0) != (rs.Bytes == 0) {
						t.Fatalf("inconsistent round stats: %+v", rs)
					}
				}
				if msgs != res.Stats.Messages || bytes != res.Stats.Bytes ||
					comp != res.Stats.CompressedBytes || max != res.Stats.MaxMessageBytes {
					t.Fatalf("per-round sums (%d, %d, %d, max %d) do not match totals %+v",
						msgs, bytes, comp, max, res.Stats)
				}
				last := res.Stats.PerRound[len(res.Stats.PerRound)-1]
				if last.Messages != 0 || last.Bytes != 0 {
					t.Fatalf("final round carries traffic: %+v", last)
				}
				if res.Stats.Messages == 0 || res.Stats.Bytes == 0 {
					t.Fatal("no traffic recorded")
				}
			})
		}
	}
}

// TestDistTrafficScalesLinearly asserts total traffic grows linearly in m
// on the necklace (constant per-node work, m-proportional node count).
func TestDistTrafficScalesLinearly(t *testing.T) {
	res8, err := dist.SolveDistributed(context.Background(), necklace(t, 8), core.Options{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	res16, err := dist.SolveDistributed(context.Background(), necklace(t, 16), core.Options{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res16.Stats.Messages != 2*res8.Stats.Messages {
		t.Fatalf("messages: %d at m=16, want exactly double %d", res16.Stats.Messages, res8.Stats.Messages)
	}
	if res16.Stats.Bytes != 2*res8.Stats.Bytes {
		t.Fatalf("bytes: %d at m=16, want exactly double %d", res16.Stats.Bytes, res8.Stats.Bytes)
	}
}
