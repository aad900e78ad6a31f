// Package netlist implements a structural gate-level Verilog subset —
// modules, scalar ports, wires and named-connection cell instances — which
// is all a combinational SSTA flow needs. It is the input format of the
// internal/sta engine and of cmd/sta.
//
// Supported grammar (comments // and /* */ are skipped):
//
//	module NAME (port, port, ...);
//	  input  a, b;
//	  output y;
//	  wire   n1, n2;
//	  CELLTYPE instName (.PIN(net), .PIN(net), ...);
//	endmodule
package netlist

import (
	"fmt"
	"sort"
	"strings"
)

// PortDir is a module port direction.
type PortDir int

// Port directions.
const (
	Input PortDir = iota
	Output
)

// String names the direction as in Verilog.
func (d PortDir) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Port is a scalar module port.
type Port struct {
	Name string
	Dir  PortDir
}

// Instance is one cell instantiation with named pin connections.
type Instance struct {
	Name string
	Cell string
	// Conns maps cell pin names to net names.
	Conns map[string]string
	// PinOrder preserves the connection order for writing.
	PinOrder []string
}

// Module is a flat structural module.
type Module struct {
	Name      string
	Ports     []Port
	Wires     []string
	Instances []Instance
}

// Inputs returns the module's input port names.
func (m *Module) Inputs() []string {
	var out []string
	for _, p := range m.Ports {
		if p.Dir == Input {
			out = append(out, p.Name)
		}
	}
	return out
}

// Outputs returns the module's output port names.
func (m *Module) Outputs() []string {
	var out []string
	for _, p := range m.Ports {
		if p.Dir == Output {
			out = append(out, p.Name)
		}
	}
	return out
}

// Nets returns every net name referenced by the module, sorted.
func (m *Module) Nets() []string {
	set := map[string]bool{}
	for _, p := range m.Ports {
		set[p.Name] = true
	}
	for _, w := range m.Wires {
		set[w] = true
	}
	for _, inst := range m.Instances {
		for _, n := range inst.Conns {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate checks structural sanity: unique instance names, connections
// referencing declared nets, and no port both input and output.
func (m *Module) Validate() error {
	seen := map[string]bool{}
	for _, p := range m.Ports {
		if seen[p.Name] {
			return fmt.Errorf("netlist: duplicate port %q", p.Name)
		}
		seen[p.Name] = true
	}
	declared := map[string]bool{}
	for _, p := range m.Ports {
		declared[p.Name] = true
	}
	for _, w := range m.Wires {
		if declared[w] {
			return fmt.Errorf("netlist: wire %q redeclares a port", w)
		}
		declared[w] = true
	}
	instNames := map[string]bool{}
	for _, inst := range m.Instances {
		if instNames[inst.Name] {
			return fmt.Errorf("netlist: duplicate instance %q", inst.Name)
		}
		instNames[inst.Name] = true
		for pin, net := range inst.Conns {
			if !declared[net] {
				return fmt.Errorf("netlist: instance %q pin %s connects to undeclared net %q",
					inst.Name, pin, net)
			}
		}
	}
	return nil
}

// String emits the module as Verilog.
func (m *Module) String() string {
	var b strings.Builder
	names := make([]string, len(m.Ports))
	for i, p := range m.Ports {
		names[i] = p.Name
	}
	fmt.Fprintf(&b, "module %s (%s);\n", m.Name, strings.Join(names, ", "))
	for _, p := range m.Ports {
		fmt.Fprintf(&b, "  %s %s;\n", p.Dir, p.Name)
	}
	if len(m.Wires) > 0 {
		fmt.Fprintf(&b, "  wire %s;\n", strings.Join(m.Wires, ", "))
	}
	for _, inst := range m.Instances {
		conns := make([]string, 0, len(inst.Conns))
		order := inst.PinOrder
		if len(order) == 0 {
			for pin := range inst.Conns {
				order = append(order, pin)
			}
			sort.Strings(order)
		}
		for _, pin := range order {
			conns = append(conns, fmt.Sprintf(".%s(%s)", pin, inst.Conns[pin]))
		}
		fmt.Fprintf(&b, "  %s %s (%s);\n", inst.Cell, inst.Name, strings.Join(conns, ", "))
	}
	b.WriteString("endmodule\n")
	return b.String()
}
