// Package viz renders deployments, localization results, and beliefs as
// ASCII art for terminal inspection — the "figures" of a stdlib-only
// reproduction. All renderers are deterministic pure functions of their
// inputs.
package viz

import (
	"fmt"
	"math"
	"strings"

	"wsnloc/internal/bayes"
	"wsnloc/internal/core"
	"wsnloc/internal/geom"
	"wsnloc/internal/mathx"
)

// ramp maps intensities in [0, 1] to characters, light to dark.
const ramp = " .:-=+*#%@"

// cell returns the ramp character for intensity v in [0,1].
func cell(v float64) byte {
	if v <= 0 {
		return ramp[0]
	}
	if v >= 1 {
		return ramp[len(ramp)-1]
	}
	return ramp[int(v*float64(len(ramp)-1)+0.5)]
}

// canvas is a character raster mapped onto a world rectangle.
type canvas struct {
	w, h   int
	bounds geom.Rect
	rows   [][]byte
}

func newCanvas(bounds geom.Rect, width int) *canvas {
	if width < 8 {
		width = 8
	}
	aspect := bounds.Height() / bounds.Width()
	// Terminal cells are ~2× taller than wide; halve the row count.
	h := int(float64(width)*aspect/2 + 0.5)
	if h < 4 {
		h = 4
	}
	c := &canvas{w: width, h: h, bounds: bounds, rows: make([][]byte, h)}
	for i := range c.rows {
		c.rows[i] = []byte(strings.Repeat(" ", width))
	}
	return c
}

// at maps a world point to raster coordinates.
func (c *canvas) at(p mathx.Vec2) (col, row int, ok bool) {
	fx := (p.X - c.bounds.Min.X) / c.bounds.Width()
	fy := (p.Y - c.bounds.Min.Y) / c.bounds.Height()
	if fx < 0 || fx > 1 || fy < 0 || fy > 1 {
		return 0, 0, false
	}
	col = mathx.ClampInt(int(fx*float64(c.w)), 0, c.w-1)
	// Row 0 is the top: flip Y so north is up.
	row = mathx.ClampInt(int((1-fy)*float64(c.h)), 0, c.h-1)
	return col, row, true
}

func (c *canvas) put(p mathx.Vec2, ch byte) {
	if col, row, ok := c.at(p); ok {
		c.rows[row][col] = ch
	}
}

func (c *canvas) String() string {
	var b strings.Builder
	border := "+" + strings.Repeat("-", c.w) + "+\n"
	b.WriteString(border)
	for _, r := range c.rows {
		b.WriteString("|")
		b.Write(r)
		b.WriteString("|\n")
	}
	b.WriteString(border)
	return b.String()
}

// FieldMap renders a deployment and (optionally) its localization result:
//
//	A  anchor
//	o  unknown localized to within 0.5 R
//	+  unknown localized to within 1 R
//	x  unknown with error above 1 R
//	?  unknown the algorithm could not localize
//	·  region interior (sparse shading)
//
// Pass res == nil to render the bare deployment.
func FieldMap(p *core.Problem, res *core.Result, width int) string {
	bounds := p.Deploy.Region.Bounds()
	c := newCanvas(bounds, width)

	// Shade the region interior sparsely so irregular shapes read.
	for row := 0; row < c.h; row += 2 {
		for col := 0; col < c.w; col += 4 {
			wx := bounds.Min.X + (float64(col)+0.5)/float64(c.w)*bounds.Width()
			wy := bounds.Min.Y + (1-(float64(row)+0.5)/float64(c.h))*bounds.Height()
			if p.Deploy.Region.Contains(mathx.V2(wx, wy)) {
				c.rows[row][col] = '.'
			}
		}
	}

	for i, pos := range p.Deploy.Pos {
		switch {
		case p.Deploy.Anchor[i]:
			c.put(pos, 'A')
		case res == nil:
			c.put(pos, 'o')
		case !res.Localized[i]:
			c.put(pos, '?')
		default:
			err := res.Est[i].Dist(pos)
			switch {
			case err <= 0.5*p.R:
				c.put(pos, 'o')
			case err <= p.R:
				c.put(pos, '+')
			default:
				c.put(pos, 'x')
			}
		}
	}
	legend := "A anchor   o err<=0.5R   + err<=R   x err>R   ? unlocalized\n"
	if res == nil {
		legend = "A anchor   o node\n"
	}
	return c.String() + legend
}

// Heatmap renders a grid belief as character shades, dark = more mass.
// Intensities are normalized to the belief's max cell.
func Heatmap(b *bayes.Belief, width int) string {
	g := b.Grid
	c := newCanvas(g.Bounds(), width)
	maxW := 0.0
	for _, w := range b.W {
		if w > maxW {
			maxW = w
		}
	}
	if maxW <= 0 {
		return c.String()
	}
	// Aggregate grid cells into canvas cells by max, so narrow peaks are
	// never lost to undersampling when the canvas is coarser than the grid.
	agg := make([]float64, c.w*c.h)
	for idx := 0; idx < g.Cells(); idx++ {
		w := b.At(idx)
		col, row, ok := c.at(g.CenterIdx(idx))
		if !ok {
			continue
		}
		if w > agg[row*c.w+col] {
			agg[row*c.w+col] = w
		}
	}
	for row := 0; row < c.h; row++ {
		for col := 0; col < c.w; col++ {
			// Sqrt compresses the dynamic range so rings stay visible.
			c.rows[row][col] = cell(math.Sqrt(agg[row*c.w+col] / maxW))
		}
	}
	return c.String()
}

// Histogram renders values as a horizontal-bar histogram with the given
// number of bins over [0, max(values)].
func Histogram(values []float64, bins, width int) string {
	if len(values) == 0 {
		return "(no data)\n"
	}
	if bins < 1 {
		bins = 10
	}
	if width < 10 {
		width = 10
	}
	_, maxV := mathx.MinMax(values)
	if maxV <= 0 {
		maxV = 1
	}
	counts := make([]int, bins)
	for _, v := range values {
		i := mathx.ClampInt(int(v/maxV*float64(bins)), 0, bins-1)
		counts[i]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		lo := float64(i) / float64(bins) * maxV
		hi := float64(i+1) / float64(bins) * maxV
		bar := strings.Repeat("#", int(float64(c)/float64(maxC)*float64(width)+0.5))
		fmt.Fprintf(&b, "%7.2f–%-7.2f %5d %s\n", lo, hi, c, bar)
	}
	return b.String()
}
