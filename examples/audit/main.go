// Audit demonstrates the paper's §6 auditing application: a base model in
// the lake is discovered to be poisoned; risk propagates to every downstream
// version through the *recovered* version graph (the uploader documentation
// is incomplete, so declared lineage alone would miss descendants), and each
// descendant's audit report carries the finding plus the auto-answered
// questionnaire.
package main

import (
	"context"
	"fmt"
	"log"

	"modellake"
)

func main() {
	lk, err := modellake.Open(modellake.Config{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	defer lk.Close()

	spec := modellake.DefaultLakeSpec(23)
	spec.NumBases = 2
	spec.ChildrenPerBase = 5
	spec.CardDropProb = 0.7 // lineage documentation mostly missing
	pop, err := modellake.GenerateLake(spec)
	if err != nil {
		log.Fatal(err)
	}
	idOf := map[int]string{}
	for i, m := range pop.Members {
		rec, err := lk.Ingest(m.Model, m.Card, modellake.RegisterOptions{Name: m.Truth.Name})
		if err != nil {
			log.Fatal(err)
		}
		idOf[i] = rec.ID
	}

	// The first base model is found to be poisoned.
	poisonedIdx := 0
	for i, m := range pop.Members {
		if m.Truth.Depth == 0 {
			poisonedIdx = i
			break
		}
	}
	flagged := map[string]string{
		idOf[poisonedIdx]: "training data poisoning disclosed by upstream maintainer",
	}
	fmt.Printf("flagged: %s (%s)\n\n", idOf[poisonedIdx], pop.Members[poisonedIdx].Truth.Name)

	// Audit every model; descendants of the poisoned base must inherit the
	// risk even though most cards lost their base_model field.
	trueDescendants := map[string]bool{}
	for i, m := range pop.Members {
		for _, anc := range ancestorClosure(pop, i) {
			if anc == poisonedIdx {
				trueDescendants[idOf[i]] = true
			}
		}
		_ = m
	}
	fmt.Printf("%d true descendants should inherit the risk\n\n", len(trueDescendants))

	ctx := context.Background()
	caught, missed := 0, 0
	for i := range pop.Members {
		rep, err := lk.AuditContext(ctx, idOf[i], flagged)
		if err != nil {
			log.Fatal(err)
		}
		inherits := rep.HasCritical()
		if trueDescendants[idOf[i]] || idOf[i] == idOf[poisonedIdx] {
			if inherits {
				caught++
			} else {
				missed++
			}
		}
		if inherits {
			fmt.Printf("  %s (%s): CRITICAL\n", idOf[i], pop.Members[i].Truth.Name)
		}
	}
	fmt.Printf("\nrisk recall via recovered graph: %d caught, %d missed\n\n", caught, missed)

	// Print one full report.
	var victim string
	for id := range trueDescendants {
		victim = id
		break
	}
	if victim == "" {
		victim = idOf[poisonedIdx]
	}
	rep, err := lk.AuditContext(ctx, victim, flagged)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Markdown())
}

// ancestorClosure returns the true transitive ancestors of member i.
func ancestorClosure(pop *modellake.Population, i int) []int {
	var out []int
	seen := map[int]bool{i: true}
	queue := []int{i}
	for qi := 0; qi < len(queue); qi++ {
		for _, p := range pop.Members[queue[qi]].Truth.Parents {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
				queue = append(queue, p)
			}
		}
	}
	return out
}
