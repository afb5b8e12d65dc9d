package obs

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"
)

// Every HTML view the roles serve — each role's /statusz and every
// /tracez list and trace — is one Page rendered by
// pageTmpl. html/template escapes every string a page carries, by the
// context it lands in. The only markup drawn unescaped is what this file
// builds itself (Sparkline, Bar), carried in a Cell's unexported markup.

// Page is one HTML view: a title, a badge and status line, optional
// problems and /tracez search box, a key/value summary, titled tables
// and footer links.
type Page struct {
	Title    string
	Badge    Cell // drawn before Status; none when its Text is empty
	Status   string
	Problems []string // listed under the status line, as bad
	Search   bool     // draw the /tracez search box, holding Query
	Query    string
	Summary  [][2]string // key, value
	Sections []Section
	Links    []Cell // footer links; one without Text shows its Href
}

// Section is one titled table. With no rows it shows Empty instead, or
// is left out when Empty is blank.
type Section struct {
	Title   string
	Headers []string
	Rows    [][]Cell
	Empty   string
}

// Cell is one table cell: Text, linked to Href when set, styled by Class
// ("ok", "bad" or "muted") and indented Depth levels (span trees).
type Cell struct {
	Text, Href, Class string
	Depth             int
	markup            template.HTML // built in this file only; drawn before Text
}

// Markup returns the trusted markup the cell draws before its text.
func (c Cell) Markup() template.HTML { return c.markup }

// Write renders the page as one self-contained HTML document.
func (p Page) Write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	// Headers go out with the first write; an execute error mid-page has
	// nothing structured left to report.
	_ = pageTmpl.Execute(w, p)
}

// Texts is a row of plain text cells.
func Texts(texts ...string) []Cell {
	row := make([]Cell, len(texts))
	for i, t := range texts {
		row[i].Text = t
	}
	return row
}

// Verdict is a cell reading badText as bad when bad holds, else okText
// as ok.
func Verdict(bad bool, badText, okText string) Cell {
	if bad {
		return Cell{Text: badText, Class: "bad"}
	}
	return Cell{Text: okText, Class: "ok"}
}

// Sparkline is a cell drawing a per-bucket series as a 150×24 inline SVG
// polyline scaled to the series max. An all-zero series draws a flat
// baseline, an empty one nothing.
func Sparkline(series []float64) Cell {
	const w, h = 150, 24
	if len(series) == 0 {
		return Cell{}
	}
	maxV := 0.0
	for _, v := range series {
		maxV = max(maxV, v)
	}
	var pts strings.Builder
	n := len(series)
	for i, v := range series {
		x := float64(w)
		if n > 1 {
			x = float64(i) / float64(n-1) * w
		}
		y := float64(h - 1)
		if maxV > 0 {
			y = float64(h-1) - v/maxV*float64(h-2)
		}
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x, y)
	}
	return Cell{markup: template.HTML(fmt.Sprintf(
		`<svg width="%d" height="%d" viewBox="0 0 %d %d"><polyline fill="none" stroke="#4a7dcf" stroke-width="1.2" points="%s"/></svg>`,
		w, h, w, h, pts.String()))}
}

// Bar is a cell drawing frac (0..1, clamped) as a filled bar, red when
// hot, followed by label.
func Bar(frac float64, hot bool, label string) Cell {
	class := ""
	if hot {
		class = ` class="bad"`
	}
	return Cell{Text: label, markup: template.HTML(fmt.Sprintf(
		`<span class="bar"><span%s style="width:%.0f%%"></span></span> `, class, min(max(frac, 0), 1)*100))}
}

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font: 13px/1.5 system-ui, sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 3px 9px; text-align: left; }
th { background: #f2f2f2; font-weight: 600; }
.ok { color: #1a7f37; font-weight: 600; } .bad { color: #b42318; font-weight: 600; }
.muted { color: #777; }
a { color: #06c; text-decoration: none; } a:hover { text-decoration: underline; }
svg { vertical-align: middle; }
.bar { display: inline-block; width: 160px; height: 11px; background: #e6e6e6; border-radius: 3px; overflow: hidden; vertical-align: middle; }
.bar span { display: block; height: 100%; background: #1a7f37; } .bar .bad { background: #b42318; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p>{{if .Badge.Text}}<span class="{{.Badge.Class}}">{{.Badge.Text}}</span> · {{end}}{{.Status}}</p>
{{with .Problems}}<ul>{{range .}}<li class="bad">{{.}}</li>{{end}}</ul>
{{end}}{{if .Search}}<form method="get" action="/tracez"><input name="q" value="{{.Query}}" size="40" placeholder="trace id | error | min_ms:25 | route substring"> <input type="submit" value="search"></form>
{{end}}{{with .Summary}}<table>
{{range .}}<tr><th>{{index . 0}}</th><td>{{index . 1}}</td></tr>
{{end}}</table>
{{end}}{{range .Sections}}{{if or .Rows .Empty}}
<h2>{{.Title}}</h2>
{{if .Rows}}<table>
{{with .Headers}}<tr>{{range .}}<th>{{.}}</th>{{end}}</tr>
{{end}}{{range .Rows}}<tr>{{range .}}<td{{with .Class}} class="{{.}}"{{end}}{{with .Depth}} style="text-indent:{{.}}em"{{end}}>{{.Markup}}{{if .Href}}<a href="{{.Href}}">{{.Text}}</a>{{else}}{{.Text}}{{end}}</td>{{end}}</tr>
{{end}}</table>{{else}}<p class="muted">{{.Empty}}</p>{{end}}
{{end}}{{end}}
{{with .Links}}<p class="muted">{{range $i, $l := .}}{{if $i}} · {{end}}<a href="{{$l.Href}}">{{or $l.Text $l.Href}}</a>{{end}}</p>
{{end}}</body>
</html>
`))
