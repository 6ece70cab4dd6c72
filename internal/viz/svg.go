// Package viz renders networks, clusterings, and query answers as
// standalone SVG documents — the visual counterpart of the paper's
// figures 1 and 3–5. It is deliberately dependency-free: the SVG is
// assembled with fmt into a bytes.Buffer.
package viz

import (
	"fmt"
	"io"
	"math"

	"elink/internal/cluster"
	"elink/internal/topology"
)

// palette cycles through visually distinct fills for clusters.
var palette = []string{
	"#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
	"#86bcb6", "#d37295", "#a0cbe8", "#ffbe7d", "#8cd17d",
}

// The drawing is svgWidth pixels wide (height follows the bounding box's
// aspect ratio), with nodes of radius svgNodeRadius pixels.
const (
	svgWidth      = 640
	svgNodeRadius = 6.0
)

// Options controls the rendering.
type Options struct {
	// ShowEdges draws the communication graph in light grey.
	ShowEdges bool
	// ShowRoots rings each cluster root.
	ShowRoots bool
	// Highlight draws a thick outline around the given nodes (e.g. a
	// query answer or a safe path).
	Highlight []topology.NodeID
	// PathEdges draws straight segments between consecutive nodes (e.g.
	// a path query answer).
	PathEdges []topology.NodeID
	// Title is printed above the drawing.
	Title string
}

// WriteSVG renders g, coloured by c (pass nil for an uncoloured network),
// to w. The drawing is a faithful plan view: node positions come straight
// from the topology.
func WriteSVG(w io.Writer, g *topology.Graph, c *cluster.Clustering, opts Options) error {
	min, max := g.BoundingBox()
	spanX := math.Max(max.X-min.X, 1e-9)
	spanY := math.Max(max.Y-min.Y, 1e-9)

	margin := 3 * svgNodeRadius
	titlePad := 0.0
	if opts.Title != "" {
		titlePad = 24
	}
	innerW := float64(svgWidth) - 2*margin
	scale := innerW / spanX
	innerH := spanY * scale
	height := innerH + 2*margin + titlePad

	px := func(p topology.Point) (float64, float64) {
		// Flip Y so larger Y draws higher, the usual map convention.
		return margin + (p.X-min.X)*scale, titlePad + margin + (max.Y-p.Y)*scale
	}

	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	pr(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%.0f" viewBox="0 0 %d %.0f">`+"\n",
		svgWidth, height, svgWidth, height)
	pr(`<rect width="100%%" height="100%%" fill="white"/>` + "\n")
	if opts.Title != "" {
		pr(`<text x="%v" y="17" font-family="sans-serif" font-size="14" fill="#333">%s</text>`+"\n",
			margin, opts.Title)
	}

	if opts.ShowEdges {
		pr(`<g stroke="#dddddd" stroke-width="1">` + "\n")
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(topology.NodeID(u)) {
				if int(v) <= u {
					continue
				}
				x1, y1 := px(g.Pos[u])
				x2, y2 := px(g.Pos[v])
				pr(`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f"/>`+"\n", x1, y1, x2, y2)
			}
		}
		pr("</g>\n")
	}

	if len(opts.PathEdges) > 1 {
		pr(`<g stroke="#222222" stroke-width="2.5" fill="none">` + "\n")
		for i := 0; i+1 < len(opts.PathEdges); i++ {
			x1, y1 := px(g.Pos[opts.PathEdges[i]])
			x2, y2 := px(g.Pos[opts.PathEdges[i+1]])
			pr(`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f"/>`+"\n", x1, y1, x2, y2)
		}
		pr("</g>\n")
	}

	highlight := make(map[topology.NodeID]bool, len(opts.Highlight))
	for _, u := range opts.Highlight {
		highlight[u] = true
	}
	roots := make(map[topology.NodeID]bool)
	if c != nil && opts.ShowRoots {
		for _, r := range c.Roots {
			if r >= 0 {
				roots[r] = true
			}
		}
	}

	for u := 0; u < g.N(); u++ {
		x, y := px(g.Pos[u])
		fill := "#888888"
		if c != nil {
			fill = palette[c.ClusterOf(topology.NodeID(u))%len(palette)]
		}
		stroke, sw := "#555555", 0.5
		if highlight[topology.NodeID(u)] {
			stroke, sw = "#000000", 2.0
		}
		pr(`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" stroke="%s" stroke-width="%.1f"/>`+"\n",
			x, y, svgNodeRadius, fill, stroke, sw)
		if roots[topology.NodeID(u)] {
			pr(`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" stroke="#000000" stroke-width="1.2"/>`+"\n",
				x, y, svgNodeRadius+3)
		}
	}
	pr("</svg>\n")
	return err
}
