// Package telgen generates CustomerInfo documents (the schema of Figure 1)
// at configurable scale — the sales-and-ordering data of the paper's §1.1
// telecom scenario. It complements the xmark package, which generates the
// §5 auction workload.
package telgen

import (
	"fmt"
	"math/rand"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// Config sizes the generated customer base.
type Config struct {
	// Customers is the number of customer documents (default 10).
	Customers int
	// MaxOrders, MaxLines and MaxFeatures bound the per-parent repetition
	// (defaults 3, 3, 2; at least one order/line each).
	MaxOrders, MaxLines, MaxFeatures int
	// Seed makes generation deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Customers <= 0 {
		c.Customers = 10
	}
	if c.MaxOrders <= 0 {
		c.MaxOrders = 3
	}
	if c.MaxLines <= 0 {
		c.MaxLines = 3
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = 2
	}
	return c
}

var (
	firstNames = []string{"Ann", "Bob", "Carol", "Dave", "Eve", "Frank", "Grace", "Hugo"}
	lastNames  = []string{"Adams", "Baker", "Chen", "Diaz", "Evans", "Ford", "Gupta", "Hale"}
	services   = []string{"local", "long-distance", "international", "wireless"}
	features   = []string{"callerID", "voicemail", "call-waiting", "forwarding", "conference"}
	switches   = []string{"sw-east-1", "sw-east-2", "sw-west-1", "sw-west-2", "sw-central"}
)

// Schema returns the CustomerInfo schema the documents conform to.
func Schema() *schema.Schema { return schema.CustomerInfo() }

// Customers generates one document per customer, with instance identifiers
// assigned.
func Customers(cfg Config) []*xmltree.Node {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	docs := make([]*xmltree.Node, 0, cfg.Customers)
	tel := 5550000
	for i := 0; i < cfg.Customers; i++ {
		c := &xmltree.Node{Name: "Customer"}
		name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
		c.AddKid(&xmltree.Node{Name: "CustName", Text: name})
		for o := 0; o < 1+rng.Intn(cfg.MaxOrders); o++ {
			order := &xmltree.Node{Name: "Order"}
			svc := &xmltree.Node{Name: "Service"}
			svc.AddKid(&xmltree.Node{Name: "ServiceName", Text: services[rng.Intn(len(services))]})
			for l := 0; l < 1+rng.Intn(cfg.MaxLines); l++ {
				tel++
				line := &xmltree.Node{Name: "Line"}
				line.AddKid(&xmltree.Node{Name: "TelNo", Text: fmt.Sprintf("555-%04d", tel%10000)})
				sw := &xmltree.Node{Name: "Switch"}
				sw.AddKid(&xmltree.Node{Name: "SwitchID", Text: switches[rng.Intn(len(switches))]})
				line.AddKid(sw)
				for f := 0; f < rng.Intn(cfg.MaxFeatures+1); f++ {
					feat := &xmltree.Node{Name: "Feature"}
					feat.AddKid(&xmltree.Node{Name: "FeatureID", Text: features[rng.Intn(len(features))]})
					line.AddKid(feat)
				}
				svc.AddKid(line)
			}
			order.AddKid(svc)
			c.AddKid(order)
		}
		core.AssignIDs(c)
		// Prefix IDs with the customer index so documents can coexist in
		// one store.
		prefixIDs(c, fmt.Sprintf("c%d.", i))
		docs = append(docs, c)
	}
	return docs
}

func prefixIDs(n *xmltree.Node, prefix string) {
	if n.ID != "" {
		n.ID = prefix + n.ID
	}
	if n.Parent != "" {
		n.Parent = prefix + n.Parent
	}
	for _, k := range n.Kids {
		prefixIDs(k, prefix)
	}
}
