package weightspace

import (
	"fmt"
	"math"
	"testing"

	"modellake/internal/embedding"
	"modellake/internal/lakegen"
	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/xrand"
)

func population(t *testing.T, seed uint64, bases, children int) *lakegen.Population {
	t.Helper()
	s := lakegen.DefaultSpec(seed)
	s.NumBases = bases
	s.ChildrenPerBase = children
	pop, err := lakegen.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range pop.Members {
		m.Model.ID = fmt.Sprintf("m%02d", i)
	}
	return pop
}

func familyLabels(pop *lakegen.Population) ([]*model.Handle, []string) {
	var hs []*model.Handle
	var labels []string
	for _, m := range pop.Members {
		hs = append(hs, model.NewHandle(m.Model))
		labels = append(labels, fmt.Sprintf("family-%d", m.Truth.Family))
	}
	return hs, labels
}

func TestProbePredictsFamilyFromWeights(t *testing.T) {
	// The docgen scenario: the probe trains on the lake's *documented*
	// models and labels the undocumented rest of the same lake. (Cross-lake
	// transfer from raw weights is impossible in principle: independently
	// initialized networks solving the same task occupy permutation-
	// symmetric weight regions.)
	pop := population(t, 101, 4, 8)
	hs, labels := familyLabels(pop)
	var hTrain, hTest []*model.Handle
	var lTrain, lTest []string
	for i := range hs {
		if i%3 == 0 { // every third member is "undocumented"
			hTest = append(hTest, hs[i])
			lTest = append(lTest, labels[i])
		} else {
			hTrain = append(hTrain, hs[i])
			lTrain = append(lTrain, labels[i])
		}
	}

	probe, trainAcc, err := TrainProbe(hTrain, lTrain, ProbeConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if trainAcc < 0.9 {
		t.Fatalf("train accuracy = %v, want >= 0.9", trainAcc)
	}
	acc, err := probe.Accuracy(hTest, lTest)
	if err != nil {
		t.Fatal(err)
	}
	base := MajorityBaseline(lTest)
	if acc <= base+0.2 {
		t.Fatalf("probe accuracy %v not clearly above majority baseline %v", acc, base)
	}
}

func TestProbePredictsTransform(t *testing.T) {
	pop := population(t, 103, 4, 8)
	var hs []*model.Handle
	var labels []string
	for _, m := range pop.Members {
		hs = append(hs, model.NewHandle(m.Model))
		labels = append(labels, m.Truth.Transform)
	}
	probe, trainAcc, err := TrainProbe(hs, labels, ProbeConfig{Seed: 2, Epochs: 100})
	if err != nil {
		t.Fatal(err)
	}
	base := MajorityBaseline(labels)
	if trainAcc <= base {
		t.Fatalf("transform probe train accuracy %v <= baseline %v", trainAcc, base)
	}
	_ = probe
}

func TestProbeValidation(t *testing.T) {
	pop := population(t, 104, 2, 1)
	hs, labels := familyLabels(pop)
	if _, _, err := TrainProbe(nil, nil, ProbeConfig{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, _, err := TrainProbe(hs, labels[:1], ProbeConfig{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	same := make([]string, len(hs))
	for i := range same {
		same[i] = "only"
	}
	if _, _, err := TrainProbe(hs, same, ProbeConfig{}); err == nil {
		t.Fatal("single-class accepted")
	}
	// Probing a closed-weights model fails cleanly.
	probe, _, err := TrainProbe(hs, labels, ProbeConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Predict(model.WithViews(pop.Members[0].Model, model.ViewExtrinsic)); err == nil {
		t.Fatal("closed-weights model probed")
	}
}

// TestDefaultEmbedderBuiltOnce: probes trained without an embedder share one
// standard embedder, and it embeds to the bits a freshly built one does.
func TestDefaultEmbedderBuiltOnce(t *testing.T) {
	pop := population(t, 106, 2, 2)
	hs, labels := familyLabels(pop)
	p1, _, err := TrainProbe(hs, labels, ProbeConfig{Seed: 1, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := TrainProbe(hs, labels, ProbeConfig{Seed: 2, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p1.emb != p2.emb {
		t.Fatal("each probe built its own default embedder")
	}
	fresh := embedding.NewWeightEmbedder(32, 4, 12345)
	for _, h := range hs {
		got, err := p1.emb.Embed(h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Embed(h)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d]: shared embedder %v, fresh %v", h.ID(), i, got[i], want[i])
			}
		}
	}
}

func TestMajorityBaseline(t *testing.T) {
	if got := MajorityBaseline([]string{"a", "a", "b"}); got != 2.0/3 {
		t.Fatalf("baseline = %v", got)
	}
	if MajorityBaseline(nil) != 0 {
		t.Fatal("empty baseline should be 0")
	}
}

func TestLinearConnectivityParentChildVsUnrelated(t *testing.T) {
	pop := population(t, 105, 3, 5)
	var edge lakegen.Edge
	found := false
	for _, e := range pop.Edges {
		if e.Transform == model.TransformFinetune {
			edge = e
			found = true
			break
		}
	}
	if !found {
		t.Skip("no finetune edge in this population")
	}
	parent := pop.Members[edge.Parent]
	child := pop.Members[edge.Child]
	eval := pop.Datasets[parent.Truth.DatasetID]

	related, err := LinearConnectivity(parent.Model.Net, child.Model.Net, eval, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Unrelated: a base from a different family.
	var other *lakegen.Member
	for _, m := range pop.Members {
		if m.Truth.Family != parent.Truth.Family && m.Truth.Depth == 0 {
			other = m
			break
		}
	}
	unrelated, err := LinearConnectivity(parent.Model.Net, other.Model.Net, eval, 5)
	if err != nil {
		t.Fatal(err)
	}
	if related < 0.8 {
		t.Fatalf("parent-child connectivity = %v, want >= 0.8", related)
	}
	if related <= unrelated {
		t.Fatalf("connectivity ordering violated: related %v <= unrelated %v", related, unrelated)
	}
}

func TestLinearConnectivityValidation(t *testing.T) {
	a := nn.NewMLP([]int{4, 6, 2}, nn.ReLU, xrand.New(1))
	b := nn.NewMLP([]int{4, 7, 2}, nn.ReLU, xrand.New(2))
	pop := population(t, 106, 2, 0)
	eval := pop.Datasets[pop.Members[0].Truth.DatasetID]
	if _, err := LinearConnectivity(a, b, eval, 5); err == nil {
		t.Fatal("arch mismatch accepted")
	}
}
