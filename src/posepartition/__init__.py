"""posepartition: decode multi-person poses from joint confidence maps and
dense joint-to-centroid regression maps.

The package covers the full loop: synthesizing ground-truth map pairs from
annotated scenes, detecting joint candidates, partitioning them into person
hypotheses via centroid votes, assembling per-person joint configurations
greedily, and scoring the results against ground truth.  Each stage is
imported from its module (posepartition.pipeline, posepartition.maps, ...);
the package root holds only __version__.
"""
__version__ = "0.1.0"
