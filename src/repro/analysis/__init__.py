"""Evaluation analysis: paper reference data, Table 1/2/3 and Figure 7/8
generators, and the end-to-end experiment driver."""
