"""Semantic discovery and service composition in a smart home (§2.2).

Amigo-S models *required* capabilities ("capabilities needed by a service,
which will be sought on other networked services") precisely to enable
composition.  This scenario:

* discovers the video servers that semantically match a movie request,
  ranked by semantic distance;
* plans a home cinema *task* that needs a video stream and an
  ambient-light control;
* resolves the projector's own *required* media catalog transitively,
  comparing the centrally coordinated planner with the greedy
  peer-to-peer scheme.

Run:  python examples/smart_home_composition.py
"""

from repro import (
    Capability,
    CodeTable,
    Composer,
    OntologyRegistry,
    SemanticDirectory,
    ServiceProfile,
    ServiceRequest,
)
from repro.ontology.generator import media_home_ontologies
from repro.ontology.model import Ontology

NS = "http://repro.example.org/media"
HOME = "http://repro.example.org/home"


def r(name: str) -> str:
    return f"{NS}/resources#{name}"


def s(name: str) -> str:
    return f"{NS}/servers#{name}"


def h(name: str) -> str:
    return f"{HOME}#{name}"


def home_ontology() -> Ontology:
    onto = Ontology(uri=HOME)
    onto.concept(h("HomeDevice"))
    onto.concept(h("Light"), parents=(h("HomeDevice"),))
    onto.concept(h("DimmableLight"), parents=(h("Light"),))
    onto.concept(h("LightLevel"))
    onto.validate()
    return onto


def build_services() -> list[ServiceProfile]:
    projector = ServiceProfile(
        uri="urn:home:svc:projector",
        name="Projector",
        provided=(
            Capability.build(
                "urn:home:cap:project",
                "ProjectVideo",
                inputs=[r("VideoResource")],
                outputs=[r("VideoStream")],
                category=s("VideoServer"),
            ),
        ),
        required=(
            Capability.build(
                "urn:home:cap:needcatalog",
                "NeedCatalog",
                outputs=[r("Title")],
            ),
        ),
    )
    tablet = ServiceProfile(
        uri="urn:home:svc:tablet",
        name="Tablet",
        provided=(
            Capability.build(
                "urn:home:cap:tabletplay",
                "PlayStream",
                inputs=[r("DigitalResource")],
                outputs=[r("Stream")],
                category=s("DigitalServer"),
            ),
        ),
    )
    catalog = ServiceProfile(
        uri="urn:home:svc:catalog",
        name="MediaCatalog",
        provided=(
            Capability.build(
                "urn:home:cap:titles",
                "ListTitles",
                outputs=[r("Title")],
            ),
        ),
    )
    lights = ServiceProfile(
        uri="urn:home:svc:lights",
        name="AmbientLights",
        provided=(
            Capability.build(
                "urn:home:cap:dim",
                "DimLights",
                inputs=[h("LightLevel")],
                outputs=[h("DimmableLight")],
            ),
        ),
    )
    return [projector, tablet, catalog, lights]


def main() -> None:
    resources, servers = media_home_ontologies(NS)
    registry = OntologyRegistry([resources, servers, home_ontology()])
    table = CodeTable(registry)
    directory = SemanticDirectory(table)
    for profile in build_services():
        directory.publish(profile)

    # --- semantic discovery of the video source -------------------------
    want_video = Capability.build(
        "urn:home:req:video",
        "WatchMovie",
        inputs=[r("VideoResource")],
        outputs=[r("VideoStream")],
        category=s("VideoServer"),
    )
    request = ServiceRequest(uri="urn:home:req:cinema-video", capabilities=(want_video,))

    print("== video source discovery ==")
    matches = directory.query(request)
    for match in matches:
        print(f"  {match.service_uri.rsplit(':', 1)[-1]:<10} d={match.distance}")
    # The projector advertises exactly what is asked; the tablet's more
    # general Stream/DigitalServer advertisement matches at a distance.
    assert [m.service_uri for m in matches] == ["urn:home:svc:projector", "urn:home:svc:tablet"]
    print()

    # --- composition: cinema task = video + lights ----------------------
    # Per §2.3 the provider's output must *subsume* the requested one, so
    # the request names the specific device class it expects to control.
    want_lights = Capability.build(
        "urn:home:req:lights",
        "DimForMovie",
        inputs=[h("LightLevel")],
        outputs=[h("DimmableLight")],
    )
    task = ServiceRequest(
        uri="urn:home:req:cinema", capabilities=(want_video, want_lights)
    )
    composer = Composer(directory)
    for scheme in ("central", "p2p"):
        plan = composer.compose(task, scheme=scheme)
        print(f"== composition ({scheme}) ==")
        for binding in plan.bindings:
            print(
                f"  {binding.consumer_uri.rsplit(':', 1)[-1]:<12} needs "
                f"{binding.required_capability.name:<12} -> "
                f"{binding.provider_uri.rsplit(':', 1)[-1]:<10} "
                f"({binding.provided_capability.name}, d={binding.distance})"
            )
        print(
            f"  resolved={plan.resolved} services={[u.rsplit(':', 1)[-1] for u in plan.services()]}"
            f" total distance={plan.total_distance}\n"
        )
        assert plan.resolved


if __name__ == "__main__":
    main()
