package platform

import (
	"fmt"
	"math/rand"
	"strings"

	"expertfind/internal/kb"
)

// TextGen composes synthetic resource texts: topical posts that
// mention knowledge-base entities and domain vocabulary (so they are
// spottable by the annotator and matchable by the vector-space model),
// generic chatter, non-English posts (filtered later by the language
// identification step, as ~30% of the paper's corpus was), profile
// bios, career summaries, and the external Web pages that ~70% of
// resources link to.
type TextGen struct {
	kb     *kb.KB
	web    webRegistry
	rand   *rand.Rand
	urlSeq int
	cities []string // surface forms of the KB's City entities, in ID order
	buf    []byte   // fill's text, reused: the returned string is its one copy

	// URLProb is the probability that a topical post links an external
	// page (the paper reports 70% of resources containing a URL).
	URLProb float64
	// NonEnglishProb is the probability that a chatter post is written
	// in a non-English language (~30% of the paper's corpus).
	NonEnglishProb float64
}

// webRegistry is the subset of webcontent.Web that TextGen needs;
// kept as an interface so tests can observe page registration.
type webRegistry interface {
	AddPage(url, title, main string)
}

// NewTextGen returns a generator drawing entities and vocabulary from
// k, registering linked pages in web, and using r for all randomness.
func NewTextGen(k *kb.KB, web webRegistry, r *rand.Rand) *TextGen {
	var cities []string
	for _, e := range k.EntitiesInDomain(kb.Location) {
		if e.Type == "City" {
			cities = append(cities, k.Surface(e.ID))
		}
	}
	return &TextGen{kb: k, web: web, rand: r, cities: cities, URLProb: 0.7, NonEnglishProb: 0.30}
}

var postTemplates = []string{
	"just read a great article about %e, the %v details were impressive and worth your time",
	"spent the whole evening on %v and %v again, %e never disappoints me",
	"can anyone recommend good resources about %e? i really want to improve my %v skills",
	"thinking about %e again today, such an amazing %v story when you look closely",
	"long day of %v work, but the news about %e made everything better tonight",
	"wow, %e just announced something big and the whole %v community is excited about it",
	"hot take: %e is a bit overrated, the real %v gems are found elsewhere honestly",
	"finally understood how %v actually works thanks to a brilliant post about %e",
	"%v and %v night tonight, reading everything i can find about %e",
	"quick question about %e: how does the %v part actually work in practice?",
	"wrote a long piece on %v yesterday and compared notes on %e with a colleague",
	"the %v scene keeps getting better, and %e is leading the charge this year",
}

var chatterEnglish = []string{
	"what a week, so tired but happy that it is finally over tonight",
	"coffee first, everything else can wait until later this morning",
	"happy birthday to my wonderful sister, hope the year treats her well",
	"cannot believe how fast this year is flying by, almost december already",
	"rainy sunday, blankets and tea and absolutely no plans whatsoever",
	"there was such a long line at the shop again, they say patience is a virtue",
	"we are having dinner with the whole family tonight and i could not be happier",
	"traffic was terrible this morning, almost missed the early meeting",
	"new haircut day, feeling like a completely different person now",
	"weekend plans: absolutely nothing and i am very much looking forward to it",
}

var chatterNonEnglish = []string{
	"che settimana lunga, finalmente arriva il fine settimana e posso riposare un poco",
	"stasera cena con gli amici di sempre, non vedo l'ora di raccontare tutto",
	"il traffico di questa mattina era davvero impossibile, sono arrivato tardissimo",
	"qué semana tan larga, por fin llega el fin de semana y puedo descansar",
	"esta noche cena con los amigos de siempre, tengo muchas ganas de verlos",
	"oggi il tempo è bellissimo e ho voglia di fare una lunga passeggiata in centro",
	"domani si torna al lavoro ma almeno oggi mi godo questa giornata tranquilla",
	"el tráfico de esta mañana era imposible, llegué tardísimo a la oficina",
}

var pageTemplates = []string{
	"This in-depth article examines %e from every angle. Readers interested in %v will find a" +
		" detailed discussion of %v and %v, with expert commentary and historical context." +
		" The piece closes with an analysis of how %e compares with its peers and what the" +
		" %v community expects next.",
	"A comprehensive guide to %e. We cover the fundamentals of %v, walk through practical" +
		" %v examples, and interview specialists about the future of %v. Whether you are new" +
		" to %e or a seasoned follower, there is something here for you.",
	"Breaking analysis: everything you need to know about %e this season. Our correspondents" +
		" break down the %v situation, assess the %v implications, and rank the key moments." +
		" The %v angle receives particular attention in the second half.",
}

// TopicalPost composes a post about domain d: a template filled with
// a domain entity and vocabulary words, plus an optional linked Web
// page (registered in the synthetic Web) whose extracted content
// reinforces the topical signal.
func (t *TextGen) TopicalPost(d kb.Domain) (text string, urls []string) {
	tmpl := postTemplates[t.rand.Intn(len(postTemplates))]
	text = t.fill(tmpl, d)
	if t.rand.Float64() < t.URLProb {
		urls = []string{t.registerPage(d)}
	}
	return text, urls
}

// Chatter composes a generic, non-topical post; a fraction of them is
// non-English so the corpus exercises the language filter.
func (t *TextGen) Chatter() string {
	if t.rand.Float64() < t.NonEnglishProb {
		return chatterNonEnglish[t.rand.Intn(len(chatterNonEnglish))]
	}
	return chatterEnglish[t.rand.Intn(len(chatterEnglish))]
}

// ShortBio composes a Facebook/Twitter-style profile line. When
// topical is set, it mentions the given domain's vocabulary and one
// entity (the fragmentary expertise signal that distance-0 retrieval
// has to work with); otherwise it is purely generic.
func (t *TextGen) ShortBio(d kb.Domain, topical bool) string {
	if !topical {
		generic := []string{
			"living one day at a time and enjoying the ride",
			"proud parent, occasional cook, full time dreamer",
			"here for the memes and the good conversations",
			"just a regular person with an internet connection",
			"trying to be better than yesterday, every day",
		}
		return generic[t.rand.Intn(len(generic))]
	}
	tmpl := []string{
		"big fan of %v and %v, always happy to talk about %e",
		"%v enthusiast, follower of everything %e related",
		"i spend my weekends on %v, %e fan since forever",
	}
	return t.fill(tmpl[t.rand.Intn(len(tmpl))], d)
}

// CityLine returns a location fragment appended to many profiles
// regardless of expertise: the widespread geographic information that
// makes the Location domain hard for the system (§3.7).
func (t *TextGen) CityLine() string {
	return "living in " + t.cities[t.rand.Intn(len(t.cities))]
}

// CareerProfile composes a verbose LinkedIn-style career description
// centred on the given work domains, in decreasing order of weight.
func (t *TextGen) CareerProfile(work []kb.Domain) string {
	if len(work) == 0 {
		return "professional with several years of cross functional industry experience"
	}
	var b strings.Builder
	titles := []string{
		"senior engineer", "consultant", "team lead", "research associate",
		"product specialist", "freelance professional", "analyst",
	}
	fmt.Fprintf(&b, "%s with %d years of experience", titles[t.rand.Intn(len(titles))], 3+t.rand.Intn(15))
	for i, d := range work {
		if i >= 2 {
			break
		}
		b.WriteString(". ")
		b.WriteString(t.fill("worked extensively with %e and %e, skilled in %v, %v and %v", d))
	}
	b.WriteString(". open to interesting opportunities and collaborations")
	return b.String()
}

// GroupDesc composes the textual description of a group or page
// focused on domain d.
func (t *TextGen) GroupDesc(d kb.Domain) (name, desc string) {
	e := t.entity(d)
	v := t.vocab(d)
	name = fmt.Sprintf("%s %s community", titleCase(t.kb.Surface(e.ID)), v)
	desc = t.fill("a community for people who love %e and everything about %v and %v", d)
	return name, desc
}

// AccountBio composes the profile of a thematically focused Twitter
// account (the followed users that stand in for groups/pages on
// Twitter, §2.2).
func (t *TextGen) AccountBio(d kb.Domain) string {
	tmpl := []string{
		"official updates about %e, daily %v news and %v commentary",
		"all things %e: %v analysis, interviews and breaking %v stories",
		"your daily dose of %v, covering %e since 2009",
	}
	return t.fill(tmpl[t.rand.Intn(len(tmpl))], d)
}

// fill replaces %e with entity surface forms and %v with vocabulary
// words of the domain, drawing independently for each placeholder.
func (t *TextGen) fill(tmpl string, d kb.Domain) string { return t.fillAbout(tmpl, d, "") }

// fillAbout is fill with every %e written as ent instead of drawn,
// unless ent is empty.
func (t *TextGen) fillAbout(tmpl string, d kb.Domain, ent string) string {
	b := t.buf[:0]
	for i := 0; i < len(tmpl); i++ {
		if tmpl[i] == '%' && i+1 < len(tmpl) {
			switch tmpl[i+1] {
			case 'e':
				if ent != "" {
					b = append(b, ent...)
				} else {
					b = append(b, t.kb.Surface(t.entity(d).ID)...)
				}
				i++
				continue
			case 'v':
				b = append(b, t.vocab(d)...)
				i++
				continue
			}
		}
		b = append(b, tmpl[i])
	}
	t.buf = b
	return string(b)
}

// titleCase uppercases the first letter of every space-separated word.
func titleCase(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ")
}

func (t *TextGen) entity(d kb.Domain) kb.Entity {
	ents := t.kb.EntitiesInDomain(d)
	return ents[t.rand.Intn(len(ents))]
}

func (t *TextGen) vocab(d kb.Domain) string {
	v := t.kb.Vocab(d)
	return v[t.rand.Intn(len(v))]
}

// registerPage creates a synthetic Web page about domain d and
// returns its URL.
func (t *TextGen) registerPage(d kb.Domain) string {
	t.urlSeq++
	url := fmt.Sprintf("https://%s.example.com/article/%d", strings.ReplaceAll(string(d), "-", ""), t.urlSeq)
	ent := t.kb.Surface(t.entity(d).ID)
	title := "Everything about " + ent
	body := t.fillAbout(pageTemplates[t.rand.Intn(len(pageTemplates))], d, ent)
	t.web.AddPage(url, title, body)
	return url
}
