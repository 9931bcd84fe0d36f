package experiment

import "testing"

// TestPaperReportsGolden pins the rendered paper reports — Figure 9, Table 2,
// Figures 10 and 11 and the network study — at the scales the shape tests
// already run. The literals were captured at the commit before QCC's internal
// settings became constants (PR 25) and are never re-captured: a constant
// that drifted from the old default moves a factor, a route or a response
// time, and the shape assertions elsewhere in this package would not notice.
// One sanctioned re-capture: the Figure 10 and 11 literals were re-pinned
// when a phase's update burst began to reach every replica of a table
// instead of the loaded servers' copies alone (workload.WriteNickname). The
// calm servers of phases 2–7 now hold the written data too, which moves
// their response times; phases 1 and 8 are unchanged by construction.
func TestPaperReportsGolden(t *testing.T) {
	gain := gainStudy(t)
	for _, c := range []struct {
		name, got, want string
	}{
		{"Figure 9", FormatFigure9(sensitivity(t)), goldenFigure9},
		{"Table 2", FormatTable2(gain), goldenTable2},
		{"Figure 10", FormatFigure10(gain), goldenFigure10},
		{"Figure 11", FormatFigure11(gain), goldenFigure11},
		{"network study", FormatNetworkStudy(networkStudy(t)), goldenNetwork},
	} {
		if c.got != c.want {
			t.Errorf("%s drifted from the pinned report:\n--- got\n%s--- want\n%s", c.name, c.got, c.want)
		}
	}
}

const goldenFigure9 = `Figure 9 — QT1: response time (ms) per instance
  series         q1       q2       q3       q4       q5
  S1-low       42.5     41.9     41.2     40.7     40.0
  S1-high     117.6    115.3    113.2    111.1    109.0
  S2-low       33.5     33.1     32.6     32.2     31.8
  S2-high      78.9     77.5     76.2     74.9     73.6
  S3-low       19.3     19.1     18.9     18.7     18.6
  S3-high      32.6     32.2     31.8     31.3     30.9

Figure 9 — QT2: response time (ms) per instance
  series         q1       q2       q3       q4       q5
  S1-low       32.8     31.6     30.0     28.9     27.7
  S1-high      84.3     80.1     74.6     70.9     66.7
  S2-low       26.7     25.8     24.7     23.9     23.1
  S2-high      57.9     55.3     51.8     49.5     46.9
  S3-low       15.0     14.6     14.0     13.7     13.3
  S3-high      48.6     44.7     39.5     36.1     32.2

Figure 9 — QT3: response time (ms) per instance
  series         q1       q2       q3       q4       q5
  S1-low       21.2     20.9     20.7     20.6     20.4
  S1-high      48.2     47.0     46.2     45.7     44.5
  S2-low       18.3     18.1     18.0     18.0     17.8
  S2-high      37.1     36.1     35.5     35.1     34.2
  S3-low       13.0     13.0     13.0     13.0     12.9
  S3-high      19.0     18.7     18.5     18.4     18.2

Figure 9 — QT4: response time (ms) per instance
  series         q1       q2       q3       q4       q5
  S1-low       21.2     21.2     21.2     21.3     20.6
  S1-high      57.1     56.8     56.9     57.6     54.1
  S2-low       17.7     17.7     17.7     17.8     17.3
  S2-high      46.3     46.1     46.2     46.7     44.1
  S3-low       11.8     11.8     11.8     11.8     11.8
  S3-high      21.4     21.4     21.4     21.6     20.8

`

const goldenTable2 = `Table 2 — Fixed Server Assignment vs Dynamic Assignment (per phase)
  QType  Fixed       1       2       3       4       5       6       7       8
  QT1    S1         S3      S3      S3      S3      S3      S3      S3      S3
  QT2    S2         S3      S2      S3      S1      S3      S2      S3      S3
  QT3    S1         S3      S2      S3      S3      S3      S2      S3      S3
  QT4    S3         S3      S2      S3      S1      S3      S2      S3      S3
`

const goldenFigure10 = `Figure 10 — Benefits of QCC vs Fixed Assignment 1 (typical registration)
  Phase     Fixed1(ms)     QCC(ms)    Gain
  Phase1          25.2        15.0   40.6%
  Phase2          27.8        23.8   14.3%
  Phase3          32.7        15.1   54.0%
  Phase4          35.1        26.2   25.3%
  Phase5          49.8        15.1   69.7%
  Phase6          52.1        23.8   54.4%
  Phase7          57.1        15.1   73.6%
  Phase8          59.5        29.5   50.4%
  average gain: 47.8%
`

const goldenFigure11 = `Figure 11 — Benefits of QCC vs Fixed Assignment 2 (always S3)
  Phase     Fixed2(ms)     QCC(ms)    Gain
  Phase1          15.0        15.0    0.0%
  Phase2          29.5        23.8   19.3%
  Phase3          15.1        15.1    0.0%
  Phase4          29.5        26.2   11.0%
  Phase5          15.1        15.1    0.0%
  Phase6          29.5        23.8   19.3%
  Phase7          15.1        15.1    0.0%
  Phase8          29.5        29.5    0.0%
  average gain: 6.2%
`

const goldenNetwork = `Network study — congestion on the preferred server's link
  congestion   pinned(ms)     QCC(ms)    gain
          1x        15.0        15.0    0.0%
          4x        45.6        23.8   47.8%
         16x       168.0        23.8   85.8%
`
