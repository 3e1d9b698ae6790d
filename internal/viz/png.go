package viz

import (
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"wsnloc/internal/bayes"
	"wsnloc/internal/core"
	"wsnloc/internal/mathx"
)

// PNG rendering: publication-style figures from the same inputs as the
// ASCII renderers, written with the standard library's image/png.

var (
	colBackground = color.RGBA{245, 245, 245, 255}
	colRegion     = color.RGBA{225, 232, 238, 255}
	colAnchor     = color.RGBA{20, 90, 200, 255}
	colGood       = color.RGBA{30, 150, 60, 255}
	colMedium     = color.RGBA{240, 160, 20, 255}
	colBad        = color.RGBA{210, 40, 40, 255}
	colLost       = color.RGBA{120, 120, 120, 255}
	colResidual   = color.RGBA{180, 60, 60, 120}
)

// WriteFieldPNG renders the deployment (and result, if non-nil) as a PNG of
// the given pixel width. Nodes are dots colored by error bucket; residual
// lines connect estimates to truths.
func WriteFieldPNG(w io.Writer, p *core.Problem, res *core.Result, width int) error {
	if width < 64 {
		width = 64
	}
	bounds := p.Deploy.Region.Bounds()
	height := int(float64(width) * bounds.Height() / bounds.Width())
	if height < 64 {
		height = 64
	}
	img := image.NewRGBA(image.Rect(0, 0, width, height))

	toPix := func(pt mathx.Vec2) (int, int) {
		x := int((pt.X - bounds.Min.X) / bounds.Width() * float64(width-1))
		y := int((1 - (pt.Y-bounds.Min.Y)/bounds.Height()) * float64(height-1))
		return x, y
	}

	// Background + region shading.
	for py := 0; py < height; py++ {
		for px := 0; px < width; px++ {
			wx := bounds.Min.X + float64(px)/float64(width-1)*bounds.Width()
			wy := bounds.Min.Y + (1-float64(py)/float64(height-1))*bounds.Height()
			if p.Deploy.Region.Contains(mathx.V2(wx, wy)) {
				img.SetRGBA(px, py, colRegion)
			} else {
				img.SetRGBA(px, py, colBackground)
			}
		}
	}

	// Residual lines first so dots draw over them.
	if res != nil {
		for i, pos := range p.Deploy.Pos {
			if p.Deploy.Anchor[i] || !res.Localized[i] {
				continue
			}
			x0, y0 := toPix(pos)
			x1, y1 := toPix(res.Est[i])
			drawLine(img, x0, y0, x1, y1, colResidual)
		}
	}

	for i, pos := range p.Deploy.Pos {
		x, y := toPix(pos)
		switch {
		case p.Deploy.Anchor[i]:
			drawDot(img, x, y, 3, colAnchor)
		case res == nil:
			drawDot(img, x, y, 2, colLost)
		case !res.Localized[i]:
			drawDot(img, x, y, 2, colLost)
		default:
			err := res.Est[i].Dist(pos)
			c := colGood
			if err > p.R {
				c = colBad
			} else if err > 0.5*p.R {
				c = colMedium
			}
			drawDot(img, x, y, 2, c)
		}
	}
	return png.Encode(w, img)
}

// WriteHeatmapPNG renders a grid belief as a grayscale heat map (dark =
// more probability mass), with the same sqrt compression as Heatmap.
func WriteHeatmapPNG(w io.Writer, b *bayes.Belief, width int) error {
	if width < 64 {
		width = 64
	}
	g := b.Grid
	gb := g.Bounds()
	height := int(float64(width) * gb.Height() / gb.Width())
	if height < 64 {
		height = 64
	}
	img := image.NewRGBA(image.Rect(0, 0, width, height))

	maxW := 0.0
	for _, v := range b.W {
		if v > maxW {
			maxW = v
		}
	}
	for py := 0; py < height; py++ {
		for px := 0; px < width; px++ {
			wx := gb.Min.X + float64(px)/float64(width-1)*gb.Width()
			wy := gb.Min.Y + (1-float64(py)/float64(height-1))*gb.Height()
			v := 0.0
			if maxW > 0 {
				v = math.Sqrt(b.At(g.IndexOf(mathx.V2(wx, wy))) / maxW)
			}
			shade := uint8(255 - 230*mathx.Clamp(v, 0, 1))
			img.SetRGBA(px, py, color.RGBA{shade, shade, 255, 255})
		}
	}
	return png.Encode(w, img)
}

// drawDot fills a filled disk of radius r pixels at (x, y), clipped.
func drawDot(img *image.RGBA, x, y, r int, c color.RGBA) {
	b := img.Bounds()
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx*dx+dy*dy > r*r {
				continue
			}
			px, py := x+dx, y+dy
			if px >= b.Min.X && px < b.Max.X && py >= b.Min.Y && py < b.Max.Y {
				img.SetRGBA(px, py, c)
			}
		}
	}
}

// drawLine draws a Bresenham line with alpha-over blending.
func drawLine(img *image.RGBA, x0, y0, x1, y1 int, c color.RGBA) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	e := dx + dy
	b := img.Bounds()
	for {
		if x0 >= b.Min.X && x0 < b.Max.X && y0 >= b.Min.Y && y0 < b.Max.Y {
			blend(img, x0, y0, c)
		}
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * e
		if e2 >= dy {
			e += dy
			x0 += sx
		}
		if e2 <= dx {
			e += dx
			y0 += sy
		}
	}
}

func blend(img *image.RGBA, x, y int, c color.RGBA) {
	dst := img.RGBAAt(x, y)
	a := float64(c.A) / 255
	mix := func(d, s uint8) uint8 {
		return uint8(float64(d)*(1-a) + float64(s)*a)
	}
	img.SetRGBA(x, y, color.RGBA{mix(dst.R, c.R), mix(dst.G, c.G), mix(dst.B, c.B), 255})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
