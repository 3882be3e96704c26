// Lineage demonstrates model-version recovery: a family tree of models is
// generated (fine-tunes, LoRA merges, edits, stitches), its documentation is
// thrown away, and the lake reconstructs the directed Model Graph from the
// weights alone — then labels each recovered edge with the transformation
// that produced it and emits version-anchored citations.
package main

import (
	"context"
	"fmt"
	"log"

	"modellake"
)

func main() {
	lk, err := modellake.Open(modellake.Config{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer lk.Close()

	spec := modellake.DefaultLakeSpec(11)
	spec.NumBases = 3
	spec.ChildrenPerBase = 6
	spec.CardDropProb = 1.0 // no documentation at all: lineage must come from θ
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

	// True graph (hidden from the lake).
	fmt.Println("true version edges (hidden from the lake):")
	for _, e := range pop.Edges {
		fmt.Printf("  %-22s -> %-22s (%s)\n",
			pop.Members[e.Parent].Truth.Name, pop.Members[e.Child].Truth.Name, e.Transform)
	}

	// Recovered graph.
	g, err := lk.VersionGraphContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	nameOf := map[string]string{}
	for i := range pop.Members {
		nameOf[idOf[i]] = pop.Members[i].Truth.Name
	}
	truth := map[[2]string]string{}
	for _, e := range pop.Edges {
		truth[[2]string{idOf[e.Parent], idOf[e.Child]}] = e.Transform
	}
	fmt.Println("\nrecovered from weights alone:")
	correct, labelCorrect := 0, 0
	for _, e := range g.Edges {
		mark := " "
		if wantTransform, ok := truth[[2]string{e.Parent, e.Child}]; ok {
			mark = "*"
			correct++
			if e.Transform == wantTransform {
				labelCorrect++
			}
		}
		fmt.Printf("  %s %-22s -> %-22s (%s, dist %.3g)\n",
			mark, nameOf[e.Parent], nameOf[e.Child], e.Transform, e.Distance)
	}
	fmt.Printf("\n%d/%d recovered edges are true (* = matches ground truth); %d/%d labels correct\n",
		correct, len(g.Edges), labelCorrect, correct)

	// Citations anchor to this graph snapshot.
	cite, err := lk.Cite(idOf[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncitation for %s:\n  %s\n", nameOf[idOf[0]], cite)
}
